"""CLI subcommands: summary lines, exit codes, config precedence, pipeline.

Tests call ``cli.main`` in-process and parse the single JSON summary line
each successful subcommand prints.
"""

import datetime as dt
import json
import shlex
import socketserver
import struct
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from ehrseq import cli, container, corpus, embedding, encoder, scoring

README = Path(__file__).resolve().parents[1] / "README.md"


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr().out.strip()
    return code, json.loads(out) if out else None


class TestGenData:
    def test_deterministic_for_a_seed(self, tmp_path, capsys):
        a, b = tmp_path / "a", tmp_path / "b"
        for out_dir in (a, b):
            code, summary = run(capsys, "gen-data", "--seed", "7", "--patients", "120",
                                "--codes", "40", "--apps", "300", "--months", "4",
                                "--out", str(out_dir))
            assert code == 0
            assert summary["patients"] == 120
            assert summary["applications"] == 300
        assert (a / "patients.jsonl").read_bytes() == (b / "patients.jsonl").read_bytes()
        assert (a / "insurance.jsonl").read_bytes() == (b / "insurance.jsonl").read_bytes()

    def test_different_seeds_differ(self, tmp_path, capsys):
        a, b = tmp_path / "a", tmp_path / "b"
        run(capsys, "gen-data", "--seed", "1", "--patients", "50", "--codes", "40",
            "--out", str(a))
        run(capsys, "gen-data", "--seed", "2", "--patients", "50", "--codes", "40",
            "--out", str(b))
        assert (a / "patients.jsonl").read_bytes() != (b / "patients.jsonl").read_bytes()


class TestConfigFile:
    def test_config_sets_defaults_and_flags_win(self, tmp_path, capsys):
        cfg = tmp_path / "gen.cfg"
        cfg.write_text("patients=80\ncodes=40\n# a comment\n\napps=0\n")
        code, summary = run(capsys, "gen-data", "--config", str(cfg), "--seed", "3",
                            "--out", str(tmp_path / "a"))
        assert code == 0 and summary["patients"] == 80 and summary["codes"] == 40
        code, summary = run(capsys, "gen-data", "--config", str(cfg), "--seed", "3",
                            "--patients", "30", "--out", str(tmp_path / "b"))
        assert code == 0 and summary["patients"] == 30 and summary["codes"] == 40

    def test_unknown_config_key_fails(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("made_up=1\n")
        code = cli.main(["gen-data", "--config", str(cfg), "--out", str(tmp_path / "x")])
        err = capsys.readouterr().err
        assert code == 1
        assert "made_up" in err

    def test_malformed_config_line_fails(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("just a line without equals\n")
        code = cli.main(["gen-data", "--config", str(cfg), "--out", str(tmp_path / "x")])
        assert code == 1
        assert "key=value" in capsys.readouterr().err


class TestErrorExits:
    def test_unknown_flag_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            cli.main(["gen-data", "--bogus"])
        assert exc.value.code == 2

    def test_unknown_subcommand_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            cli.main(["frobnicate"])
        assert exc.value.code == 2

    def test_missing_input_file_exits_nonzero_with_usage(self, tmp_path, capsys):
        code = cli.main(["filter", "--patients", str(tmp_path / "nope.jsonl"),
                         "--out", str(tmp_path / "out.jsonl")])
        err = capsys.readouterr().err
        assert code == 1
        assert "error:" in err
        assert "usage:" in err

    def test_missing_out_exits_nonzero(self, tmp_path, capsys):
        code = cli.main(["gen-data", "--patients", "30", "--codes", "40"])
        assert code == 1
        assert "--out" in capsys.readouterr().err


# the arguments each subcommand requires, so that only the flag under test can fail to parse
REQUIRED = {
    "filter": ["--patients", "p"],
    "build-vocab": ["--patients", "p"],
    "eval-next-code": ["--patients", "p"],
    "eval-visits": ["--patients", "p"],
    "ablate": ["--patients", "p", "--vocab", "v"],
    "embed": ["--patients", "p", "--vocab", "v", "--model", "m"],
    "neighbors": ["--vocab", "v", "--model", "m", "--query", "q"],
    "risk-curve": ["--vocab", "v", "--model", "m", "--group", "I25"],
    "export-vectors": ["--vocab", "v", "--model", "m"],
    "score-train": ["--insurance", "i"],
    "score-eval": ["--scorer", "s", "--insurance", "i"],
    "psi": ["--scorer", "s"],
    "serve": ["--scorer", "s"],
}
SEED_COMMANDS = {"gen-data", "train", "eval-visits", "ablate"}
OUT_COMMANDS = {"gen-data", "filter", "build-vocab", "train", "embed", "risk-curve",
                "export-vectors", "score-train", "score-eval"}


class TestFlagsOnlyWhereRead:
    """A subcommand accepts only the flags its handler reads."""

    @pytest.mark.parametrize("command, flag", [
        *(pytest.param(c, ["--seed", "1"], id=f"{c}-seed")
          for c in sorted(set(REQUIRED) - SEED_COMMANDS)),
        *(pytest.param(c, ["--out", "o"], id=f"{c}-out")
          for c in sorted(set(REQUIRED) - OUT_COMMANDS)),
        pytest.param("ablate", ["--no-positional"], id="ablate-no-positional"),
    ])
    def test_unread_flag_is_usage_error(self, command, flag):
        parser, _ = cli.build_parser()
        parser.parse_args([command, *REQUIRED[command]])
        with pytest.raises(SystemExit) as exc:
            parser.parse_args([command, *REQUIRED[command], *flag])
        assert exc.value.code == 2

    def test_seed_and_out_are_declared_where_read(self):
        _, commands = cli.build_parser()
        declared = {name: {a.dest for a in p._actions} for name, p in commands.items()}
        assert {c for c, dests in declared.items() if "seed" in dests} == SEED_COMMANDS
        assert {c for c, dests in declared.items() if "out" in dests} == OUT_COMMANDS
        assert all("config" in dests for dests in declared.values())
        assert {c for c, dests in declared.items() if "no_positional" in dests} == {"train"}

    def test_config_key_for_an_unread_flag_fails(self, tmp_path, capsys):
        cfg = tmp_path / "embed.cfg"
        cfg.write_text("seed=3\n")
        code = cli.main(["embed", "--config", str(cfg), "--patients", "p", "--vocab", "v",
                         "--model", "m", "--out", str(tmp_path / "e.tsv")])
        assert code == 1
        assert "unknown config key 'seed'" in capsys.readouterr().err


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """gen-data -> filter -> build-vocab -> train, shared by the later tests."""
    root = tmp_path_factory.mktemp("pipeline")
    steps = [
        ["gen-data", "--seed", "11", "--patients", "150", "--codes", "40",
         "--apps", "1200", "--months", "6", "--out", str(root)],
        ["filter", "--patients", str(root / "patients.jsonl"),
         "--min-code-freq", "2", "--out", str(root / "filtered.jsonl")],
        ["build-vocab", "--patients", str(root / "filtered.jsonl"),
         "--out", str(root / "vocab.tsv")],
        ["train", "--patients", str(root / "filtered.jsonl"),
         "--vocab", str(root / "vocab.tsv"), "--desk-scale", "--d", "16",
         "--n-layers", "1", "--epochs", "1", "--max-len", "27",
         "--batch-size", "32", "--seed", "0", "--out", str(root / "encoder.ckpt")],
    ]
    for argv in steps:
        assert cli.main(argv) == 0
    return root


class TestPipeline:
    def test_oracle_predictor_reports_perfect_accuracy(self, pipeline, capsys):
        code, summary = run(capsys, "eval-next-code",
                            "--patients", str(pipeline / "filtered.jsonl"),
                            "--predictor", "oracle", "--thresholds", "4,8")
        assert code == 0
        assert all(cell["value"] == 1.0 for cell in summary["cells"])

    def test_model_predictor_runs(self, pipeline, capsys):
        code, summary = run(capsys, "eval-next-code",
                            "--patients", str(pipeline / "filtered.jsonl"),
                            "--vocab", str(pipeline / "vocab.tsv"),
                            "--model", str(pipeline / "encoder.ckpt"),
                            "--predictor", "model", "--thresholds", "4")
        assert code == 0
        assert 0.0 <= summary["cells"][0]["value"] <= 1.0

    def test_eval_visits(self, pipeline, capsys):
        code, summary = run(capsys, "eval-visits",
                            "--patients", str(pipeline / "filtered.jsonl"),
                            "--vocab", str(pipeline / "vocab.tsv"),
                            "--model", str(pipeline / "encoder.ckpt"),
                            "--ks", "5", "--folds", "4")
        assert code == 0
        assert summary["cells"][0]["k"] == 5

    def test_embed_and_export_vectors(self, pipeline, capsys):
        code, summary = run(capsys, "embed",
                            "--patients", str(pipeline / "filtered.jsonl"),
                            "--vocab", str(pipeline / "vocab.tsv"),
                            "--model", str(pipeline / "encoder.ckpt"),
                            "--strategy", "mean", "--out", str(pipeline / "emb.tsv"))
        assert code == 0 and summary["dim"] == 16
        header = (pipeline / "emb.tsv").read_text().splitlines()[0]
        assert header.startswith("id\tlabel\tv0")
        code, summary = run(capsys, "export-vectors",
                            "--vocab", str(pipeline / "vocab.tsv"),
                            "--model", str(pipeline / "encoder.ckpt"),
                            "--restrict", "icd", "--out", str(pipeline / "tok.tsv"))
        assert code == 0 and summary["rows"] > 0

    def test_export_vectors_restrict_classes(self, pipeline, capsys):
        model, vocab = encoder.load_with_vocab(pipeline / "encoder.ckpt", pipeline / "vocab.tsv")
        table = model.params["tok_emb"].data
        classes = {"aux": list(corpus.AUX_TOKENS), "gender": list(corpus.GENDER_TOKENS),
                   "age": [f"[AGE_{a}]" for a in range(100)],
                   "icd": [vocab.token(i) for i in vocab.icd_ids]}
        assert len(classes["icd"]) == vocab.n_icd
        expected = {k: (tokens, [k] * len(tokens)) for k, tokens in classes.items()}
        expected["any"] = (sum(classes.values(), []),
                           sum(([k] * len(t) for k, t in classes.items()), []))
        assert len(expected["any"][0]) == len(vocab)
        for restrict, (tokens, labels) in expected.items():
            out = pipeline / f"tok_{restrict}.tsv"
            code, summary = run(capsys, "export-vectors",
                                "--vocab", str(pipeline / "vocab.tsv"),
                                "--model", str(pipeline / "encoder.ckpt"),
                                "--restrict", restrict, "--out", str(out))
            assert code == 0 and summary["rows"] == len(tokens)
            got_tokens, got_labels, matrix = embedding.read_vectors(out)
            assert got_tokens == tokens  # id order
            assert got_labels == labels
            np.testing.assert_allclose(matrix, table[[vocab.id_for(t) for t in tokens]],
                                       rtol=1e-7)

    def test_neighbors(self, pipeline, capsys):
        code, summary = run(capsys, "neighbors",
                            "--vocab", str(pipeline / "vocab.tsv"),
                            "--model", str(pipeline / "encoder.ckpt"),
                            "--query", "[AGE_40]", "--restrict", "age", "--top-n", "3")
        assert code == 0
        assert len(summary["neighbors"]) == 3

    def test_risk_curve(self, pipeline, capsys):
        code, summary = run(capsys, "risk-curve",
                            "--vocab", str(pipeline / "vocab.tsv"),
                            "--model", str(pipeline / "encoder.ckpt"),
                            "--group", "I25", "--gender", "F",
                            "--out", str(pipeline / "curve.tsv"))
        assert code == 0
        assert len(summary["points"]) == 100
        assert (pipeline / "curve.tsv").read_text().startswith("age\trisk\n")

    @staticmethod
    def fail_fsync(monkeypatch):
        def no_space(fd):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(container.os, "fsync", no_space)

    def test_failed_risk_curve_write_keeps_the_old_file(self, pipeline, tmp_path, capsys,
                                                       monkeypatch):
        out = tmp_path / "curve.tsv"
        out.write_text("old\n")
        self.fail_fsync(monkeypatch)
        code = cli.main(["risk-curve", "--vocab", str(pipeline / "vocab.tsv"),
                         "--model", str(pipeline / "encoder.ckpt"), "--group", "I25",
                         "--out", str(out)])
        assert code == 1 and "No space" in capsys.readouterr().err
        assert out.read_text() == "old\n"
        assert [p.name for p in tmp_path.iterdir()] == ["curve.tsv"]

    def test_failed_score_eval_write_keeps_the_old_file(self, pipeline, tmp_path, capsys,
                                                       monkeypatch):
        code, _ = run(capsys, "score-train", "--insurance", str(pipeline / "insurance.jsonl"),
                      "--scheme", "base", "--val-months", "2", "--out", str(tmp_path / "s.bin"))
        assert code == 0
        out = tmp_path / "scores.txt"
        out.write_text("old\n")
        self.fail_fsync(monkeypatch)
        code = cli.main(["score-eval", "--scorer", str(tmp_path / "s.bin"),
                         "--insurance", str(pipeline / "insurance.jsonl"), "--out", str(out)])
        assert code == 1 and "No space" in capsys.readouterr().err
        assert out.read_text() == "old\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["s.bin", "scores.txt"]

    def test_score_train_eval_and_psi(self, pipeline, capsys):
        code, summary = run(capsys, "score-train",
                            "--insurance", str(pipeline / "insurance.jsonl"),
                            "--scheme", "base", "--val-months", "2",
                            "--out", str(pipeline / "scorer.bin"))
        assert code == 0
        assert summary["lam"] in (0.01, 0.1, 1.0, 10.0, 100.0)
        code, summary = run(capsys, "score-eval",
                            "--scorer", str(pipeline / "scorer.bin"),
                            "--insurance", str(pipeline / "insurance.jsonl"),
                            "--out", str(pipeline / "scores.txt"))
        assert code == 0
        assert 0.0 <= summary["average_auc"] <= 1.0
        code, summary = run(capsys, "psi",
                            "--scorer", str(pipeline / "scorer.bin"),
                            "--scores", str(pipeline / "scores.txt"))
        assert code == 0
        assert summary["psi"] < 0.1  # same records the scorer was fitted on

    def test_replacement_score_train(self, pipeline, capsys):
        code, summary = run(capsys, "score-train",
                            "--insurance", str(pipeline / "insurance.jsonl"),
                            "--scheme", "replacement",
                            "--patients", str(pipeline / "filtered.jsonl"),
                            "--vocab", str(pipeline / "vocab.tsv"),
                            "--model", str(pipeline / "encoder.ckpt"),
                            "--val-months", "2",
                            "--out", str(pipeline / "scorer_repl.bin"))
        assert code == 0
        assert summary["scheme"] == "replacement"
        # evaluating the replacement scorer needs the encoder artifacts back
        code, summary = run(capsys, "score-eval",
                            "--scorer", str(pipeline / "scorer_repl.bin"),
                            "--insurance", str(pipeline / "insurance.jsonl"),
                            "--vocab", str(pipeline / "vocab.tsv"),
                            "--model", str(pipeline / "encoder.ckpt"))
        assert code == 0

    def test_serve_rejects_missing_artifact(self, pipeline, capsys):
        code = cli.main(["serve", "--scorer", str(pipeline / "absent.bin")])
        assert code == 1

    def test_ablate_tiny_grid(self, pipeline, capsys):
        code, summary = run(capsys, "ablate",
                            "--patients", str(pipeline / "filtered.jsonl"),
                            "--vocab", str(pipeline / "vocab.tsv"),
                            "--desk-scale", "--d", "16", "--n-layers", "1",
                            "--epochs", "1", "--max-len", "27", "--batch-size", "32",
                            "--poolings", "cls", "--positional", "on",
                            "--gender-age", "on", "--folds", "4", "--seed", "1")
        assert code == 0
        assert summary["errors"] == []
        assert summary["cells"][0]["variant"] == "cls"


class TestGenderAgeFlag:
    """``train --no-gender-age`` is stored in the checkpoint and followed later."""

    def test_embed_follows_the_trained_setting(self, pipeline, tmp_path, capsys):
        ckpt = tmp_path / "no_ga.ckpt"
        code, _ = run(capsys, "train", "--patients", str(pipeline / "filtered.jsonl"),
                      "--vocab", str(pipeline / "vocab.tsv"), "--desk-scale", "--d", "16",
                      "--n-layers", "1", "--epochs", "1", "--max-len", "27",
                      "--batch-size", "32", "--seed", "0", "--no-gender-age",
                      "--out", str(ckpt))
        assert code == 0
        meta, arrays = container.load_artifact(ckpt, kind="encoder")
        assert meta["config"]["use_gender_age"] is False

        code, _ = run(capsys, "embed", "--patients", str(pipeline / "filtered.jsonl"),
                      "--vocab", str(pipeline / "vocab.tsv"), "--model", str(ckpt),
                      "--strategy", "mean", "--out", str(tmp_path / "emb.tsv"))
        assert code == 0
        ids, _, written = embedding.read_vectors(tmp_path / "emb.tsv")
        vocab = corpus.Vocabulary.load(pipeline / "vocab.tsv")
        model = encoder.load_checkpoint(ckpt)
        patients = corpus.ingest_corpus(pipeline / "filtered.jsonl").patients
        assert ids == [p.patient_id for p in patients]

        def mean_vectors(use_gender_age):
            rows = []
            for p in patients:
                s = corpus.encode_history(p, vocab, H=model.config.H,
                                          use_gender_age=use_gender_age)
                hidden, _ = model.forward(s.token_ids[None, : s.length],
                                          s.attention_mask[None, : s.length])
                rows.append(hidden.data[0].mean(axis=0))
            return np.asarray(rows)

        expected = mean_vectors(False)
        np.testing.assert_allclose(written, expected, rtol=1e-5, atol=1e-6)
        assert np.abs(written - mean_vectors(True)).max() > 1e-3

        # a checkpoint written before the field existed loads as True
        del meta["config"]["use_gender_age"]
        container.save_artifact(tmp_path / "old.ckpt", kind="encoder", meta=meta,
                                arrays=arrays)
        assert encoder.load_checkpoint(tmp_path / "old.ckpt").config.use_gender_age is True


class TestPositionalFlag:
    def test_no_positional_is_stored_in_the_checkpoint(self, pipeline, tmp_path, capsys):
        ckpt = tmp_path / "no_pos.ckpt"
        code, _ = run(capsys, "train", "--patients", str(pipeline / "filtered.jsonl"),
                      "--vocab", str(pipeline / "vocab.tsv"), "--desk-scale", "--d", "16",
                      "--n-layers", "1", "--epochs", "1", "--max-len", "27",
                      "--batch-size", "32", "--seed", "0", "--no-positional",
                      "--out", str(ckpt))
        assert code == 0
        meta, _ = container.load_artifact(ckpt, kind="encoder")
        assert meta["config"]["use_positional"] is False
        assert meta["config"]["use_gender_age"] is True
        meta, _ = container.load_artifact(pipeline / "encoder.ckpt", kind="encoder")
        assert meta["config"]["use_positional"] is True


class TestScoreEvalArtifacts:
    def test_replacement_scorer_without_group_table_is_an_error(
            self, pipeline, tmp_path, capsys):
        schema = scoring.FeatureSchema("replacement", [
            scoring.FeatureBlock("applicant_embedding", "embedding", ["e0", "e1"], 0)])
        ridge = scoring.RidgeModel(weights=np.zeros(2), intercept=0.0, lam=1.0,
                                   mean=np.zeros(2), scale=np.ones(2),
                                   schema_hash=schema.sha256())
        scoring.save_scorer(tmp_path / "scorer.bin", ridge, schema, np.zeros(4))
        code = cli.main(["score-eval", "--scorer", str(tmp_path / "scorer.bin"),
                         "--insurance", str(pipeline / "insurance.jsonl"),
                         "--vocab", str(pipeline / "vocab.tsv"),
                         "--model", str(pipeline / "encoder.ckpt")])
        assert code == 1
        assert "lacks a group table" in capsys.readouterr().err


class TestModelFlagsRequired:
    """The model predictor and scorer need --model and --vocab; the parser leaves them optional."""

    def test_missing_model_or_vocab_is_a_usage_error(self, pipeline, capsys):
        patients = ["--patients", str(pipeline / "filtered.jsonl")]
        model = ["--model", str(pipeline / "encoder.ckpt")]
        vocab = ["--vocab", str(pipeline / "vocab.tsv")]
        for command, option in (("eval-next-code", "--predictor model"),
                                ("eval-visits", "--scorer model")):
            for given in (model, vocab):
                assert cli.main([command, *patients, *given]) == 1, (command, given)
                err = capsys.readouterr().err
                assert f"error: {option} needs --model and --vocab" in err
                assert "usage:" in err

    @pytest.mark.parametrize("omitted", ["--patients", "--model", "--vocab"])
    def test_replacement_scorer_without_an_input_is_a_usage_error(
            self, pipeline, tmp_path, capsys, omitted):
        inputs = {"--patients": str(pipeline / "filtered.jsonl"),
                  "--model": str(pipeline / "encoder.ckpt"),
                  "--vocab": str(pipeline / "vocab.tsv")}
        given = [x for flag, path in inputs.items() if flag != omitted for x in (flag, path)]
        code = cli.main(["score-train", "--insurance", str(pipeline / "insurance.jsonl"),
                         "--scheme", "replacement", *given, "--out", str(tmp_path / "s.bin")])
        err = capsys.readouterr().err
        assert code == 1
        assert "error: --scheme replacement needs --patients, --model and --vocab" in err
        assert "usage:" in err


class TestSkippedLineReasons:
    """A skipped input line is reported with its line number and the field at fault."""

    def test_patient_file(self, pipeline, tmp_path, capsys):
        lines = (pipeline / "filtered.jsonl").read_text().splitlines()[:20]
        bad = json.loads(lines[2])
        bad["gender"] = "U"
        lines[2] = json.dumps(bad)
        path = tmp_path / "patients.jsonl"
        path.write_text("\n".join(lines) + "\n")
        assert cli.main(["build-vocab", "--patients", str(path),
                         "--out", str(tmp_path / "vocab.tsv")]) == 0
        err = capsys.readouterr().err
        assert f"warning: skipped 1 malformed lines in {path}" in err
        assert "line 3: gender must be one of" in err

    def test_insurance_file(self, pipeline, tmp_path, capsys):
        lines = (pipeline / "insurance.jsonl").read_text().splitlines()
        bad = json.loads(lines[2])
        bad["gender"] = "U"
        lines[2] = json.dumps(bad)
        path = tmp_path / "insurance.jsonl"
        path.write_text("\n".join(lines) + "\n")
        assert cli.main(["score-train", "--insurance", str(path), "--val-months", "2",
                         "--out", str(tmp_path / "scorer.bin")]) == 0
        err = capsys.readouterr().err
        assert f"warning: skipped 1 malformed lines in {path}" in err
        assert "line 3: gender: expected one of ['M', 'F']" in err


def readme_cli_commands() -> list[list[str]]:
    """Argument lists of the ``ehrseq`` lines in the README's ``## CLI`` code block."""
    section = README.read_text(encoding="utf-8").split("\n## CLI\n", 1)[1]
    block = section.split("```", 2)[1].replace("\\\n", " ")
    return [shlex.split(line)[1:] for line in block.splitlines()
            if line.startswith("ehrseq ")]


class TestReadmeCli:
    def test_every_readme_command_parses(self):
        commands = readme_cli_commands()
        assert len(commands) == 10
        parser, _ = cli.build_parser()
        for argv in commands:
            try:
                parser.parse_args(argv)
            except SystemExit:
                pytest.fail(f"README command does not parse: ehrseq {shlex.join(argv)}")


class TestEncoderPin:
    """A replacement scorer refuses an encoder it was not fit with."""

    def test_serve_and_score_eval_refuse_another_encoder(self, pipeline, tmp_path, capsys,
                                                           monkeypatch):
        code, _ = run(capsys, "score-train", "--insurance", str(pipeline / "insurance.jsonl"),
                      "--scheme", "replacement", "--patients", str(pipeline / "filtered.jsonl"),
                      "--vocab", str(pipeline / "vocab.tsv"),
                      "--model", str(pipeline / "encoder.ckpt"), "--val-months", "2",
                      "--out", str(tmp_path / "scorer.bin"))
        assert code == 0
        fitted = encoder.load_checkpoint(pipeline / "encoder.ckpt")
        other = encoder.EncoderModel.build(replace(fitted.config, seed=fitted.config.seed + 1),
                                           vocab_sha256=fitted.vocab_sha256)
        encoder.save_checkpoint(other, tmp_path / "other.ckpt")

        def stop_at_once(self, poll_interval=0.5):  # a server that starts must not block
            raise KeyboardInterrupt

        monkeypatch.setattr(socketserver.BaseServer, "serve_forever", stop_at_once)
        artifacts = ["--scorer", str(tmp_path / "scorer.bin"),
                     "--vocab", str(pipeline / "vocab.tsv"), "--model", str(tmp_path / "other.ckpt")]
        for argv in (["serve", "--port", "0", *artifacts],
                     ["score-eval", "--insurance", str(pipeline / "insurance.jsonl"), *artifacts]):
            assert cli.main(argv) == 1, argv[0]
            err = capsys.readouterr().err
            assert "error: encoder" in err, err


class TestMostCommonBaseline:
    """The most-common baseline predicts the modal code of the vocabulary's training counts."""

    def test_reads_the_training_mode_not_the_scored_corpus(self, tmp_path, capsys):
        def history(pid, codes):
            return corpus.PatientHistory(pid, "F", 40, [corpus.Event(dt.date(2015, 1, 1 + i), c)
                                                        for i, c in enumerate(codes)])

        train = [history(f"t{i}", ["A01", "A01", "B01"]) for i in range(3)]
        test = [history(f"h{i}", ["B01", "B01"]) for i in range(4)] + [history("h4", ["B01", "A01"])]
        corpus.write_patients_jsonl(train, tmp_path / "train.jsonl")
        corpus.write_patients_jsonl(test, tmp_path / "test.jsonl")
        assert cli.main(["build-vocab", "--patients", str(tmp_path / "train.jsonl"),
                         "--out", str(tmp_path / "vocab.tsv")]) == 0
        capsys.readouterr()
        code, summary = run(capsys, "eval-next-code", "--patients", str(tmp_path / "test.jsonl"),
                            "--vocab", str(tmp_path / "vocab.tsv"),
                            "--predictor", "most-common", "--thresholds", "2")
        assert code == 0
        assert summary["cells"][0]["value"] == 0.2  # A01, the training mode, is 1 label of 5

    def test_without_vocab_is_a_usage_error(self, pipeline, capsys):
        assert cli.main(["eval-next-code", "--patients", str(pipeline / "filtered.jsonl"),
                         "--predictor", "most-common"]) == 1
        err = capsys.readouterr().err
        assert "error: --predictor most-common needs --vocab" in err
        assert "usage:" in err


class TestCategoryFileReport:
    def test_eval_visits_reports_skipped_rows_and_unmapped_codes(self, pipeline, tmp_path, capsys):
        vocab = corpus.Vocabulary.load(pipeline / "vocab.tsv")
        first, second = (vocab.token(i) for i in vocab.icd_ids[:2])
        path = tmp_path / "cats.csv"
        path.write_text(f"{first},cat_a\n{second},cat_b\nnot,a,row\n")
        assert cli.main(["eval-visits", "--patients", str(pipeline / "filtered.jsonl"),
                         "--vocab", str(pipeline / "vocab.tsv"), "--scorer", "frequency",
                         "--categories", str(path), "--ks", "3", "--folds", "2"]) == 0
        out, err = capsys.readouterr()
        summary = json.loads(out)
        assert summary["categories"] == 3
        assert summary["skipped_category_rows"] == 1
        assert summary["unmapped_codes"] == vocab.n_icd - 2
        assert f"warning: skipped 1 malformed rows in {path}" in err
        assert f"{vocab.n_icd - 2} of the {vocab.n_icd} vocabulary codes" in err


class TestArtifactErrors:
    def test_malformed_scorer_header_exits_1_without_traceback(self, tmp_path, capsys):
        blob = json.dumps([{"format_version": 1}]).encode("utf-8")
        path = tmp_path / "bad.bin"
        path.write_bytes(container.MAGIC + struct.pack("<I", len(blob)) + blob)
        assert cli.main(["psi", "--scorer", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: artifact header is not a JSON object: {path}")
        assert "Traceback" not in err

    def test_checkpoint_with_another_vocabulary_names_the_remedy(self, pipeline, tmp_path, capsys):
        other = corpus.build_vocabulary(corpus.ingest_corpus(pipeline / "filtered.jsonl").patients[:40])
        other.save(tmp_path / "other.tsv")
        assert cli.main(["embed", "--patients", str(pipeline / "filtered.jsonl"),
                         "--vocab", str(tmp_path / "other.tsv"),
                         "--model", str(pipeline / "encoder.ckpt"),
                         "--out", str(tmp_path / "e.tsv")]) == 1
        err = capsys.readouterr().err
        assert "error: vocabulary mismatch" in err
        assert "pass the vocabulary it was built with, or rebuild it" in err
        assert "score-train" not in err
