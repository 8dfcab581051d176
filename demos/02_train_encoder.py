"""Train a small masked-language-model encoder and poke at its predictions.

Runs in about a minute on a laptop CPU; scale n_patients/epochs up for a
model worth keeping.
"""

import numpy as np

from ehrseq.corpus import MASK_ID, build_vocabulary, encode_history, filter_corpus
from ehrseq.encoder import EncoderModel, ModelConfig, load_checkpoint, save_checkpoint, train
from ehrseq.synthetic import generate_synthetic_corpus

patients = generate_synthetic_corpus(seed=7, n_patients=800, n_codes=100)
kept, _ = filter_corpus(patients)
vocab = build_vocabulary(kept)

config = ModelConfig.desk_scale(len(vocab), d=32, epochs=3, seed=0)
model = EncoderModel.build(config, vocab.sha256())
samples = [encode_history(p, vocab, H=config.H) for p in kept]

losses = train(model, samples, log=print)
print("epoch losses:", [round(l, 4) for l in losses])
print(f"random-guess loss would be ln({len(vocab) - 110}) = "
      f"{np.log(len(vocab) - 110):.4f}")

# checkpoints round-trip exactly
save_checkpoint(model, "/tmp/demo_encoder.ckpt")
clone = load_checkpoint("/tmp/demo_encoder.ckpt", expected_vocab_sha256=vocab.sha256())
ids = np.stack([samples[0].token_ids])
attn = np.stack([samples[0].attention_mask])
_, a = model.forward(ids, attn)
_, b = clone.forward(ids, attn)
print("checkpoint forward identical:", bool(np.array_equal(a.data, b.data)))

# hide one event and ask the model what was there
p = kept[0]
hidden_pos = 4  # first event slot after [CLS][GENDER][AGE] is 3
truth = vocab.token(samples[0].token_ids[hidden_pos])
masked = ids.copy()
masked[0, hidden_pos] = MASK_ID
_, logits = model.forward(masked, attn)
z = logits.data[0, hidden_pos]
probs = np.exp(z - z.max())
probs /= probs.sum()
top = np.argsort(-probs)[:5]
print(f"\npatient {p.patient_id}, true code at slot {hidden_pos}: {truth}")
for tid in top:
    marker = " <-- actual" if vocab.token(int(tid)) == truth else ""
    print(f"  {vocab.token(int(tid))}: {probs[tid]:.3f}{marker}")
