"""Command-line entry points for the whole pipeline.

Every subcommand accepts --config (flat key=value file) and prints exactly
one JSON summary line on success. Config-file values act as defaults; explicit
command-line flags win. A subcommand takes only the flags its handler reads:
--seed goes to gen-data, train, eval-visits and ablate; --out goes to gen-data,
filter, build-vocab, train, embed, risk-curve, export-vectors, score-train and
score-eval.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import container, corpus, embedding, encoder, evaluation, scoring, service, synthetic


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text}")
    return value


def _int_list(text: str) -> list[int]:
    return [int(x) for x in text.split(",") if x.strip()]


def _str_list(text: str) -> list[str]:
    return [x.strip() for x in text.split(",") if x.strip()]


def load_config_file(path: str | Path) -> dict[str, str]:
    """Flat key=value lines; blank lines and #-comments are ignored."""
    pairs: dict[str, str] = {}
    for lineno, line in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, _, value = line.partition("=")
        pairs[key.strip().replace("-", "_")] = value.strip()
    return pairs


def _coerce_config(pairs: dict[str, str], subparser: argparse.ArgumentParser) -> dict:
    actions = {a.dest: a for a in subparser._actions}
    out = {}
    for key, raw in pairs.items():
        action = actions.get(key)
        if action is None:
            raise ValueError(f"unknown config key {key!r} for this subcommand")
        if isinstance(action, (argparse._StoreTrueAction, argparse._StoreFalseAction)):
            out[key] = raw.lower() in ("1", "true", "yes", "on")
        elif action.type is not None:
            out[key] = action.type(raw)
        else:
            out[key] = raw
    return out


# ---------------------------------------------------------------------------
# Shared loading helpers
# ---------------------------------------------------------------------------


def _load(path: str, what: str) -> list:
    """Read a patient corpus (``what="patients"``) or an insurance file
    (``"applications"``); for skipped lines, warn with their count and first reasons."""
    if what == "patients":
        result = corpus.ingest_corpus(path)
        items, skipped, errors = result.patients, result.skipped, result.errors
    else:
        items, skipped, errors = corpus.read_insurance_jsonl(path)
    if skipped:
        print(f"warning: skipped {skipped} malformed lines in {path}", file=sys.stderr)
        for reason in errors:
            print(f"  {reason}", file=sys.stderr)
    if not items:
        raise ValueError(f"no usable {what} in {path}")
    return items


def _model_config(args, vocab_size: int) -> encoder.ModelConfig:
    if args.desk_scale:
        cfg = encoder.ModelConfig.desk_scale(vocab_size)
    else:
        cfg = encoder.ModelConfig(vocab_size=vocab_size)
    overrides = {}
    for field_name in ("d", "n_layers", "n_heads", "max_len", "epochs", "batch_size",
                       "lr", "mask_prob", "dropout"):
        value = getattr(args, field_name, None)
        if value is not None:
            overrides[field_name] = value
    if args.seed is not None:
        overrides["seed"] = args.seed
    return replace(cfg, **overrides) if overrides else cfg


def _require_out(args):
    if not args.out:
        raise ValueError("this subcommand requires --out")
    return args.out


# ---------------------------------------------------------------------------
# Subcommand handlers (each returns the JSON summary dict)
# ---------------------------------------------------------------------------


def cmd_gen_data(args) -> dict:
    out_dir = Path(_require_out(args))
    out_dir.mkdir(parents=True, exist_ok=True)
    seed = args.seed if args.seed is not None else 0
    gen_cfg = synthetic.GeneratorConfig(mean_events=args.mean_events,
                                        repeat_prob=args.repeat_prob)
    patients = synthetic.generate_synthetic_corpus(
        seed=seed, n_patients=args.patients, n_codes=args.codes, config=gen_cfg)
    files = []
    patients_path = out_dir / "patients.jsonl"
    corpus.write_patients_jsonl(patients, patients_path)
    files.append(str(patients_path))
    summary = {
        "command": "gen-data",
        "patients": len(patients),
        "events": sum(len(p.events) for p in patients),
        "codes": args.codes,
    }
    if args.apps > 0:
        records = synthetic.generate_synthetic_insurance(
            seed=seed + 1, patients=patients, n_apps=args.apps,
            months=args.months, risk_groups=_str_list(args.risk_groups))
        insurance_path = out_dir / "insurance.jsonl"
        corpus.write_insurance_jsonl(records, insurance_path)
        files.append(str(insurance_path))
        summary["applications"] = len(records)
        summary["claim_rate"] = round(float(np.mean([r.claim for r in records])), 5)
    summary["files"] = files
    return summary


def cmd_filter(args) -> dict:
    patients = _load(args.patients, "patients")
    kept, stats = corpus.filter_corpus(patients, min_code_freq=args.min_code_freq,
                                       min_events=args.min_events)
    corpus.write_patients_jsonl(kept, _require_out(args))
    return {
        "command": "filter",
        "patients": stats.n_patients,
        "codes": stats.n_codes,
        "events": stats.n_events,
        "mean_events": round(stats.mean_events, 3),
        "removed_codes": stats.removed_codes,
        "dropped_patients": stats.dropped_patients,
        "passes": stats.passes,
        "out": str(args.out),
    }


def cmd_build_vocab(args) -> dict:
    patients = _load(args.patients, "patients")
    vocab = corpus.build_vocabulary(patients)
    vocab.save(_require_out(args))
    return {"command": "build-vocab", "size": len(vocab), "n_codes": vocab.n_icd,
            "sha256": vocab.sha256(), "out": str(args.out)}


def cmd_train(args) -> dict:
    patients = _load(args.patients, "patients")
    vocab = corpus.Vocabulary.load(args.vocab)
    cfg = replace(_model_config(args, len(vocab)), use_positional=not args.no_positional,
                  use_gender_age=not args.no_gender_age)
    model = encoder.EncoderModel.build(cfg, vocab_sha256=vocab.sha256())
    samples = [corpus.encode_history(p, vocab, H=cfg.H, use_gender_age=cfg.use_gender_age)
               for p in patients]
    log = (lambda msg: print(msg, file=sys.stderr)) if args.verbose else None
    history = encoder.train(model, samples, log=log)
    encoder.save_checkpoint(model, _require_out(args))
    return {
        "command": "train",
        "epochs": len(history),
        "first_loss": round(history[0], 6),
        "final_loss": round(history[-1], 6),
        "params_sha256": model.params_sha256(),
        "out": str(args.out),
    }


def _load_model_for(args, option: str) -> tuple[encoder.EncoderModel, corpus.Vocabulary]:
    """Load ``--model`` and ``--vocab``; ``option`` needs both, though they are optional flags."""
    if not (args.model and args.vocab):
        raise ValueError(f"{option} needs --model and --vocab")
    return encoder.load_with_vocab(args.model, args.vocab)


def cmd_eval_next_code(args) -> dict:
    patients = _load(args.patients, "patients")
    thresholds = args.thresholds
    if args.predictor == "model":
        model, vocab = _load_model_for(args, "--predictor model")
        predictor = evaluation.ModelNextCodePredictor(model, vocab)
    elif args.predictor == "most-common":
        if not args.vocab:
            raise ValueError("--predictor most-common needs --vocab")
        predictor = evaluation.baseline_most_common(corpus.Vocabulary.load(args.vocab))
    elif args.predictor == "previous":
        predictor = evaluation.baseline_previous()
    else:
        predictor = evaluation.OracleNextCodePredictor(patients)
    report = evaluation.next_code_accuracy(predictor, patients, thresholds)
    return {"command": "eval-next-code", "predictor": args.predictor,
            "cells": report.to_json_records()}


def _load_categories(path: str | None, vocab: corpus.Vocabulary) -> evaluation.CategoryMap:
    """The category map of ``path`` (or the prefix fallback); warns about the
    rows it skipped and the vocabulary codes it does not map."""
    cat_map = evaluation.load_category_map(path, vocab=vocab)
    if cat_map.skipped_rows:
        print(f"warning: skipped {cat_map.skipped_rows} malformed rows in {path}", file=sys.stderr)
    if cat_map.unmapped_codes:
        print(f"warning: {path} maps no category for {cat_map.unmapped_codes} of the "
              f"{vocab.n_icd} vocabulary codes; they count as {evaluation.OTHER_CATEGORY!r}",
              file=sys.stderr)
    return cat_map


def cmd_eval_visits(args) -> dict:
    patients = _load(args.patients, "patients")
    if args.scorer == "model":
        model, vocab = _load_model_for(args, "--scorer model")
        cat_map = _load_categories(args.categories, vocab)
        scorer = evaluation.model_category_scorer(model, vocab, cat_map)
        factory = lambda train: scorer
    else:
        vocab = corpus.Vocabulary.load(args.vocab) if args.vocab else corpus.build_vocabulary(patients)
        cat_map = _load_categories(args.categories, vocab)
        factory = lambda train: evaluation.frequency_category_scorer(train, cat_map)
    report = evaluation.evaluate_visit_prediction(
        factory, patients, cat_map, ks=args.ks, folds=args.folds,
        seed=args.seed if args.seed is not None else 0)
    return {"command": "eval-visits", "scorer": args.scorer,
            "categories": cat_map.n_categories, "skipped_category_rows": cat_map.skipped_rows,
            "unmapped_codes": cat_map.unmapped_codes, "cells": report.to_json_records(),
            "skipped": report.skipped}


def cmd_ablate(args) -> dict:
    patients = _load(args.patients, "patients")
    vocab = corpus.Vocabulary.load(args.vocab)
    cfg = _model_config(args, len(vocab))
    flag_values = {"on": (True,), "off": (False,), "both": (True, False)}
    report = evaluation.ablation_suite(
        patients, vocab, cfg,
        poolings=tuple(args.poolings),
        positional=flag_values[args.positional],
        gender_age=flag_values[args.gender_age],
        ks=args.ks, folds=args.folds,
        seed=args.seed if args.seed is not None else 0,
        log=(lambda msg: print(msg, file=sys.stderr)) if args.verbose else None,
    )
    return {"command": "ablate", "cells": report.to_json_records(),
            "errors": report.errors}


def cmd_embed(args) -> dict:
    patients = _load(args.patients, "patients")
    model, vocab = encoder.load_with_vocab(args.model, args.vocab)
    embs = embedding.patient_embeddings(model, patients, vocab, args.strategy,
                                        events_only=args.events_only)
    rows = [(e.patient_id, f"{p.gender}:{p.age_years}", e.vector)
            for p, e in zip(patients, embs)]
    n = embedding.export_vectors(rows, _require_out(args))
    return {"command": "embed", "rows": n, "strategy": args.strategy,
            "dim": int(embs[0].vector.shape[0]), "out": str(args.out)}


def cmd_neighbors(args) -> dict:
    model, vocab = encoder.load_with_vocab(args.model, args.vocab)
    neighbors = embedding.nearest_tokens(model, vocab, args.query, top_n=args.top_n,
                                         restrict=args.restrict)
    return {"command": "neighbors", "query": args.query,
            "neighbors": [[t, round(s, 6)] for t, s in neighbors]}


def cmd_risk_curve(args) -> dict:
    model, vocab = encoder.load_with_vocab(args.model, args.vocab)
    # one dotless entry is a chapter prefix; anything else is a code list
    if len(args.group) == 1 and "." not in args.group[0]:
        group = args.group[0]
    else:
        group = list(args.group)
    curve = embedding.risk_curve(model, vocab, group, gender=args.gender)
    if args.out:
        with container.atomic_write(args.out) as fh:
            fh.write("age\trisk\n")
            for age, value in curve:
                fh.write(f"{age}\t{value:.8g}\n")
    return {"command": "risk-curve", "group": args.group, "gender": args.gender,
            "points": [[age, round(value, 8)] for age, value in curve],
            "out": str(args.out) if args.out else None}


def cmd_export_vectors(args) -> dict:
    model, vocab = encoder.load_with_vocab(args.model, args.vocab)
    table = model.params["tok_emb"].data
    kinds = corpus.TOKEN_KINDS if args.restrict == "any" else (args.restrict,)
    rows = [(vocab.token(tid), kind, table[tid]) for kind in kinds for tid in vocab.ids(kind)]
    n = embedding.export_vectors(rows, _require_out(args))
    return {"command": "export-vectors", "rows": n, "restrict": args.restrict,
            "out": str(args.out)}


def _embedding_source_from_args(args) -> scoring.EmbeddingSource:
    if not (args.patients and args.model and args.vocab):
        raise ValueError("--scheme replacement needs --patients, --model and --vocab")
    model, vocab = encoder.load_with_vocab(args.model, args.vocab)
    patients = _load(args.patients, "patients")
    table = embedding.average_group_embedding(model, patients, vocab, args.strategy)
    return scoring.EmbeddingSource(model, vocab, table, strategy=args.strategy)


def cmd_score_train(args) -> dict:
    records = _load(args.insurance, "applications")
    months = np.array([r.month for r in records])
    cut = months.max() + 1 - args.val_months
    if cut <= months.min():
        raise ValueError(f"--val-months {args.val_months} leaves no training months")
    train = [r for r in records if r.month < cut]
    val = [r for r in records if r.month >= cut]
    source = _embedding_source_from_args(args) if args.scheme == "replacement" else None
    X_train, schema = scoring.assemble_features(train, args.scheme,
                                                embedding_source=source)
    X_val, _ = scoring.assemble_features(val, args.scheme, schema=schema,
                                         embedding_source=source)
    y_train = np.array([r.claim for r in train], dtype=np.float64)
    y_val = np.array([r.claim for r in val], dtype=np.float64)
    period = f"months {months.min()}-{cut - 1}"
    model, lambda_aucs = scoring.select_lambda(
        X_train, y_train, X_val, y_val,
        schema_hash=schema.sha256(), training_period=period)
    reference = scoring.ridge_predict(model, X_train)
    scoring.save_scorer(_require_out(args), model, schema, reference,
                        group_table=source.group_table if source else None,
                        extra_meta={"scheme": args.scheme})
    val_report = scoring.monthly_eval(scoring.ridge_predict(model, X_val), y_val,
                                      np.array([r.month for r in val]))
    return {
        "command": "score-train",
        "scheme": args.scheme,
        "lam": model.lam,
        "lambda_aucs": {str(k): round(v, 5) for k, v in lambda_aucs.items()},
        "training_period": period,
        "val_auc": round(val_report.average, 5),
        "val_auc_by_month": [[m, round(a, 5), n] for m, a, n in val_report.cells],
        "schema_hash": schema.sha256(),
        "out": str(args.out),
    }


def cmd_score_eval(args) -> dict:
    artifact = scoring.load_scorer(args.scorer)
    records = _load(args.insurance, "applications")
    source = None
    if artifact.schema.scheme == "replacement":
        source = scoring.load_embedding_source(artifact, args.model, args.vocab)
    X, _ = scoring.assemble_features(records, artifact.schema.scheme,
                                     schema=artifact.schema, embedding_source=source)
    scores = scoring.ridge_predict(artifact.model, X, artifact.schema)
    labels = np.array([r.claim for r in records], dtype=np.float64)
    months = np.array([r.month for r in records])
    report = scoring.monthly_eval(scores, labels, months)
    drift = scoring.psi(artifact.reference_scores, scores)
    out = {
        "command": "score-eval",
        "scheme": artifact.schema.scheme,
        "average_auc": round(report.average, 5),
        "auc_by_month": [[m, round(a, 5), n] for m, a, n in report.cells],
        "skipped_months": report.skipped_months,
        "auc_month_std": round(float(np.std(report.aucs())), 5),
        "psi_vs_reference": round(drift, 6),
    }
    if args.out:
        with container.atomic_write(args.out) as fh:
            fh.write("\n".join(f"{s:.8g}" for s in scores) + "\n")
        out["out"] = str(args.out)
    return out


def cmd_psi(args) -> dict:
    artifact = scoring.load_scorer(args.scorer)
    if args.scores:
        current = np.array([float(x) for x in
                            Path(args.scores).read_text().split()])
    else:
        raise ValueError("--scores is required (a text file with one score per line)")
    if current.size == 0:
        raise ValueError(f"no scores in {args.scores}")
    value = scoring.psi(artifact.reference_scores, current, bins=args.bins)
    return {"command": "psi", "psi": round(value, 6), "bins": args.bins,
            "n_reference": int(artifact.reference_scores.shape[0]),
            "n_current": int(current.size)}


def cmd_serve(args) -> dict:
    svc = service.ScoringService.from_files(args.scorer, encoder_path=args.model,
                                            vocab_path=args.vocab, log_path=args.log)
    server = service.make_server(svc, host=args.host, port=args.port)
    host, port = server.server_address[:2]
    print(json.dumps({"command": "serve", "listening": f"{host}:{port}",
                      **svc.health()}), flush=True)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()
        svc.close()
    return {}


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    config = argparse.ArgumentParser(add_help=False)
    config.add_argument("--config", default=None,
                        help="flat key=value file of defaults for this subcommand")
    seed = argparse.ArgumentParser(add_help=False)
    seed.add_argument("--seed", type=int, default=None, help="random seed")
    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--out", default=None, help="output file or directory")

    model_opts = argparse.ArgumentParser(add_help=False)
    model_opts.add_argument("--desk-scale", action="store_true",
                            help="small CPU-sized model configuration")
    model_opts.add_argument("--d", type=_positive_int, default=None)
    model_opts.add_argument("--n-layers", type=_positive_int, default=None)
    model_opts.add_argument("--n-heads", type=_positive_int, default=None)
    model_opts.add_argument("--max-len", type=_positive_int, default=None)
    model_opts.add_argument("--epochs", type=_positive_int, default=None)
    model_opts.add_argument("--batch-size", type=_positive_int, default=None)
    model_opts.add_argument("--lr", type=float, default=None)
    model_opts.add_argument("--mask-prob", type=float, default=None)
    model_opts.add_argument("--dropout", type=float, default=None)

    parser = argparse.ArgumentParser(
        prog="ehrseq",
        description="Patient-history encoder pipeline: data, training, "
                    "evaluation, scoring and serving.")
    sub = parser.add_subparsers(dest="command", required=True)
    commands: dict[str, argparse.ArgumentParser] = {}

    def add(name, handler, parents=(), **kwargs):
        p = sub.add_parser(name, parents=[config, *parents], **kwargs)
        p.set_defaults(handler=handler)
        commands[name] = p
        return p

    p = add("gen-data", cmd_gen_data, parents=(seed, out), help="generate a synthetic corpus")
    p.add_argument("--patients", type=_positive_int, default=5000)
    p.add_argument("--codes", type=_positive_int, default=200)
    p.add_argument("--mean-events", type=float, default=10.0)
    p.add_argument("--repeat-prob", type=float, default=0.3)
    p.add_argument("--apps", type=int, default=0, help="insurance applications (0 = none)")
    p.add_argument("--months", type=_positive_int, default=12)
    p.add_argument("--risk-groups", default="I25,I21,I20",
                   help="comma-separated code prefixes carrying claim risk")

    p = add("filter", cmd_filter, parents=(out,), help="drop rare codes and short histories")
    p.add_argument("--patients", required=True)
    p.add_argument("--min-code-freq", type=_positive_int, default=5)
    p.add_argument("--min-events", type=_positive_int, default=2)

    p = add("build-vocab", cmd_build_vocab, parents=(out,), help="build the token vocabulary")
    p.add_argument("--patients", required=True)

    p = add("train", cmd_train, parents=(seed, out, model_opts),
            help="train the masked-language-model encoder")
    p.add_argument("--patients", required=True)
    p.add_argument("--vocab", required=True)
    p.add_argument("--no-positional", action="store_true")
    p.add_argument("--no-gender-age", action="store_true")
    p.add_argument("--verbose", action="store_true")

    p = add("eval-next-code", cmd_eval_next_code, help="next-code accuracy")
    p.add_argument("--patients", required=True)
    p.add_argument("--vocab")
    p.add_argument("--model")
    p.add_argument("--predictor", choices=("model", "most-common", "previous", "oracle"),
                   default="model")
    p.add_argument("--thresholds", type=_int_list, default=[4, 8])

    p = add("eval-visits", cmd_eval_visits, parents=(seed,), help="next-visit category precision@k")
    p.add_argument("--patients", required=True)
    p.add_argument("--vocab")
    p.add_argument("--model")
    p.add_argument("--scorer", choices=("model", "frequency"), default="model")
    p.add_argument("--categories", default=None, help="code,category CSV (default: prefix groups)")
    p.add_argument("--ks", type=_int_list, default=[5, 10, 20, 30])
    p.add_argument("--folds", type=_positive_int, default=10)

    p = add("ablate", cmd_ablate, parents=(seed, model_opts),
            help="pooling/positional/demographic ablation grid")
    p.add_argument("--patients", required=True)
    p.add_argument("--vocab", required=True)
    p.add_argument("--poolings", type=_str_list, default=["cls", "concat_mean_max"])
    p.add_argument("--positional", choices=("on", "off", "both"), default="both")
    p.add_argument("--gender-age", choices=("on", "off", "both"), default="on")
    p.add_argument("--ks", type=_int_list, default=[5])
    p.add_argument("--folds", type=_positive_int, default=10)
    p.add_argument("--verbose", action="store_true")

    p = add("embed", cmd_embed, parents=(out,), help="export pooled patient embeddings as TSV")
    p.add_argument("--patients", required=True)
    p.add_argument("--vocab", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--strategy", choices=embedding.POOLING_STRATEGIES, default="mean")
    p.add_argument("--events-only", action="store_true")

    p = add("neighbors", cmd_neighbors, help="nearest tokens in the embedding table")
    p.add_argument("--vocab", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--query", required=True)
    p.add_argument("--top-n", type=_positive_int, default=10)
    p.add_argument("--restrict", choices=embedding.RESTRICT_CLASSES, default="any")

    p = add("risk-curve", cmd_risk_curve, parents=(out,), help="next-code group probability by age")
    p.add_argument("--vocab", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--group", type=_str_list, required=True,
                   help="a code prefix (e.g. I25) or comma-separated full codes")
    p.add_argument("--gender", choices=corpus.GENDERS, default=None)

    p = add("export-vectors", cmd_export_vectors, parents=(out,),
            help="export the static token table as TSV")
    p.add_argument("--vocab", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--restrict", choices=corpus.TOKEN_KINDS + ("any",), default="any")

    p = add("score-train", cmd_score_train, parents=(out,), help="fit the insurance risk scorer")
    p.add_argument("--insurance", required=True)
    p.add_argument("--scheme", choices=("base", "replacement"), default="base")
    p.add_argument("--val-months", type=_positive_int, default=3)
    p.add_argument("--patients", help="patient corpus (replacement scheme)")
    p.add_argument("--vocab", help="vocabulary file (replacement scheme)")
    p.add_argument("--model", help="encoder checkpoint (replacement scheme)")
    p.add_argument("--strategy", choices=embedding.POOLING_STRATEGIES, default="mean")

    p = add("score-eval", cmd_score_eval, parents=(out,), help="monthly AUC of a fitted scorer")
    p.add_argument("--scorer", required=True)
    p.add_argument("--insurance", required=True)
    p.add_argument("--vocab")
    p.add_argument("--model")

    p = add("psi", cmd_psi, help="drift of current scores vs the stored reference")
    p.add_argument("--scorer", required=True)
    p.add_argument("--scores", help="text file with one score per line")
    p.add_argument("--bins", type=_positive_int, default=10)

    p = add("serve", cmd_serve, help="run the HTTP scoring service")
    p.add_argument("--scorer", required=True)
    p.add_argument("--vocab")
    p.add_argument("--model")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8080)
    p.add_argument("--log", default=None, help="query log JSONL path")

    return parser, commands


def main(argv: list[str] | None = None) -> int:
    parser, commands = build_parser()
    args = parser.parse_args(argv)
    if args.config:
        try:
            pairs = _coerce_config(load_config_file(args.config), commands[args.command])
        except (OSError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        # config values become the subcommand's defaults; explicit flags win
        commands[args.command].set_defaults(**pairs)
        args = parser.parse_args(argv)
    try:
        summary = args.handler(args)
    except (OSError, ValueError, KeyError, scoring.SchemaError,
            container.ContainerError, encoder.TrainingError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        commands[args.command].print_usage(sys.stderr)
        return 1
    if summary:
        print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
