"""Command-line surface: exit codes, file outputs, config echoing."""

import argparse
import hashlib
import json
import struct
import sys
import wave

import numpy as np
import pytest

from stochpool import pooling
from stochpool.cli import _build_parser, _load_run_config, main
from stochpool.cost_model import CSV_HEADER
from stochpool.data import synth_audio
from stochpool.encoder import load_checkpoint, save_checkpoint
from stochpool.runconfig import RunConfig, load_config, parse_config_text
from wavfile import write_wav


def run(*argv):
    return main(list(argv))


def write_cfg(path, **overrides):
    base = {
        "preset": "tiny",
        "seed": 0,
        "steps": 6,
        "batch_size": 2,
        "dataset_size": 8,
        "learning_rate": 0.002,
    }
    base.update(overrides)
    path.write_text("".join(f"{k} = {v}\n" for k, v in base.items()))
    return path


class TestRunConfig:
    def test_unknown_key_named(self):
        with pytest.raises(Exception, match="cromulence"):
            parse_config_text("cromulence = 4\n")

    def test_comments_and_blanks_ignored(self):
        cfg = parse_config_text("# header\n\nseed = 9  # trailing\n")
        assert cfg.seed == 9

    def test_bool_coercion(self):
        assert parse_config_text("measure = false\n").measure is False
        with pytest.raises(Exception, match="true/false"):
            parse_config_text("measure = maybe\n")

    def test_text_round_trip(self, tmp_path):
        cfg = RunConfig(seed=7, fixed_config="2-1-1")
        path = tmp_path / "c.cfg"
        path.write_text(cfg.to_text())
        again = load_config(path)
        assert again == cfg


REAL_UPSAMPLE = pooling.upsample


@pytest.fixture
def upsample_ignoring_truncation(monkeypatch):
    """Swap in an ``upsample`` that ignores ``truncate_to`` wherever stochpool
    modules look it up, so pooled outputs lose their original length."""
    def faulty(x, factor, truncate_to=None):
        return REAL_UPSAMPLE(x, factor)

    for name, module in list(sys.modules.items()):
        if name.startswith("stochpool") and getattr(module, "upsample", None) is REAL_UPSAMPLE:
            monkeypatch.setattr(module, "upsample", faulty)
    return monkeypatch


class TestVerifyCommand:
    def test_full_suite_exits_zero_in_budget(self):
        import time

        started = time.perf_counter()
        assert run("verify") == 0
        assert time.perf_counter() - started < 300

    def test_clean_run_exits_zero(self):
        assert run("verify", "--filter", "pooling") == 0

    def test_injected_fault_detected(self, upsample_ignoring_truncation):
        assert run("verify", "--filter", "pooling") == 1

    def test_injected_fault_swapped_back_out(self, upsample_ignoring_truncation):
        from stochpool import attention, encoder, verify

        assert run("verify", "--filter", "length") == 1
        upsample_ignoring_truncation.undo()
        assert all(m.upsample is REAL_UPSAMPLE for m in (pooling, attention, encoder, verify))
        assert run("verify", "--filter", "length") == 0

    def test_unmatched_filter_is_usage_error(self):
        assert run("verify", "--filter", "no-such-check") == 2


class TestPretrainCommand:
    def test_writes_checkpoint_log_and_effective_config(self, tmp_path):
        cfg = write_cfg(tmp_path / "run.cfg", output_dir=tmp_path / "out")
        assert run("pretrain", str(cfg)) == 0
        out = tmp_path / "out"
        assert (out / "checkpoint.stpl").exists()
        assert len((out / "train_log.jsonl").read_text().splitlines()) == 6
        effective = (out / "effective_config.txt").read_text()
        assert "steps = 6" in effective

    def test_seed_override_recorded_and_honored(self, tmp_path):
        cfg = write_cfg(tmp_path / "run.cfg")
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert run("pretrain", str(cfg), "--seed", "3", "--output-dir", str(out1)) == 0
        assert run("pretrain", str(cfg), "--seed", "3", "--output-dir", str(out2)) == 0

        def non_timing(path):
            records = [json.loads(line) for line in path.read_text().splitlines()]
            for rec in records:
                for key in ("wall_ms", "forward_ms", "backward_ms", "optimizer_ms"):
                    rec.pop(key)
            return records

        assert (non_timing(out1 / "train_log.jsonl")
                == non_timing(out2 / "train_log.jsonl"))
        assert "seed = 3" in (out1 / "effective_config.txt").read_text()

    def test_deterministic_flags_recorded_verbatim(self, tmp_path):
        cfg = write_cfg(tmp_path / "run.cfg", output_dir=tmp_path / "out")
        assert run("pretrain", str(cfg), "--config", "2-1-1") == 0
        effective = (tmp_path / "out" / "effective_config.txt").read_text()
        assert "fixed_config = 2-1-1" in effective

    @pytest.mark.parametrize("command,dataset", [("pretrain", "synthetic-sines"),
                                                 ("finetune", "synthetic-symbols")])
    def test_config_flag_alone_trains_at_it(self, tmp_path, command, dataset):
        cfg = write_cfg(tmp_path / "run.cfg", output_dir=tmp_path / "out", dataset=dataset)
        assert run(command, str(cfg), "--config", "2-1-1") == 0
        replay = tmp_path / "out" / "effective_config.txt"
        assert run(command, str(replay), "--output-dir", str(tmp_path / "replay")) == 0
        for out in ("out", "replay"):
            log = (tmp_path / out / "train_log.jsonl").read_text().splitlines()
            assert [json.loads(line)["config"] for line in log] == ["2-1-1"] * 6

    def test_missing_config_file(self, tmp_path):
        assert run("pretrain", str(tmp_path / "absent.cfg")) == 2

    def test_missing_dataset_path_names_it(self, tmp_path, capsys):
        out = tmp_path / "out"
        cfg = write_cfg(tmp_path / "run.cfg", dataset="synthetic-symbols", output_dir=out)
        assert run("pretrain", str(cfg)) == 2
        assert "synthetic-sines" in capsys.readouterr().err
        assert not out.exists()  # rejected before any output is written

    def test_unknown_key_exits_two(self, tmp_path, capsys):
        path = tmp_path / "bad.cfg"
        # effective configs written while `mode` was a key still name it
        for line, key in (("stepz = 5", "stepz"), ("mode = deterministic", "mode")):
            path.write_text(f"{line}\nfixed_config = 2-1-1\n")
            assert run("pretrain", str(path)) == 2
            assert repr(key) in capsys.readouterr().err

    @pytest.mark.parametrize("key,value", [("learning_rate", -1), ("learning_rate", 0),
                                           ("learning_rate", "nan"), ("eval_interval", -3)])
    def test_bad_hyperparameter_exits_two_naming_it(self, tmp_path, capsys, key, value):
        cfg = write_cfg(tmp_path / "run.cfg", output_dir=tmp_path / "out",
                        dataset="synthetic-symbols", steps=3, **{key: value})
        assert run("finetune", str(cfg)) == 2
        err = capsys.readouterr().err
        assert key in err and "Traceback" not in err

    @pytest.mark.parametrize("command,key,value", [
        ("finetune", "val_size", -1), ("finetune", "dataset_size", 0),
        ("sweep", "utterances", 0), ("finetune", "batch_size", 0), ("finetune", "steps", -1),
        ("finetune", "vocab_size", 0)])
    def test_bad_size_exits_two_naming_key_and_value(self, tmp_path, capsys, command, key,
                                                     value):
        keys = {"dataset": "synthetic-symbols", "steps": 3, key: value}
        cfg = write_cfg(tmp_path / "run.cfg", output_dir=tmp_path / "out", **keys)
        assert run(command, str(cfg)) == 2
        err = capsys.readouterr().err
        assert key in err and f"got {value}" in err and "Traceback" not in err

    @pytest.mark.parametrize("command,key,value,error", [
        ("pretrain", "squeeze_set", "1,3", "squeeze factor 3 exceeds ceiling 2"),
        ("finetune", "kv_set", "1,4", "key-value pooling 4 exceeds ceiling 2")],
        ids=["pretrain", "finetune"])
    def test_factor_beyond_the_ceiling_exits_two_before_step_zero(self, tmp_path, capsys,
                                                                   command, key, value, error):
        # one step, which draws a factor the model can run: the set is refused
        # for the factor it could draw later
        out = tmp_path / "out"
        cfg = write_cfg(tmp_path / "run.cfg", output_dir=out, dataset="synthetic-symbols"
                        if command == "finetune" else "synthetic-sines", steps=1, **{key: value})
        assert run(command, str(cfg)) == 2
        err = capsys.readouterr().err
        assert error in err and "Traceback" not in err
        assert not (out / "checkpoint.stpl").exists()


def _unreadable_argv(tmp_path, bad, kind):
    """Command line that reaches the unreadable file ``bad`` as input ``kind``."""
    if kind == "config":
        return ["pretrain", str(bad)]
    if kind == "checkpoint":
        wav = tmp_path / "a.wav"
        write_wav(wav, synth_audio(3))
        return ["decode", str(bad), str(wav)]
    key = {"config-checkpoint": "checkpoint", "manifest": "dataset"}[kind]
    cfg = write_cfg(tmp_path / "run.cfg", output_dir=tmp_path / "out", **{key: bad})
    return ["finetune", str(cfg)]


class TestUnreadableInputs:
    @pytest.mark.parametrize("kind,problem", [
        ("config", "directory"),
        ("config", "not-utf8"),
        ("checkpoint", "missing"),
        ("checkpoint", "directory"),
        ("config-checkpoint", "missing"),
        ("manifest", "missing"),
        ("manifest", "not-utf8"),
    ])
    def test_exits_two_naming_the_path(self, tmp_path, capsys, kind, problem):
        bad = tmp_path / "bad"
        if problem == "directory":
            bad.mkdir()
        elif problem == "not-utf8":
            bad.write_bytes(b"a.wav\t\xff\xfe\n")
        assert run(*_unreadable_argv(tmp_path, bad, kind)) == 2
        err = capsys.readouterr().err
        assert str(bad) in err and "Traceback" not in err


@pytest.fixture(scope="module")
def finetuned(tmp_path_factory):
    root = tmp_path_factory.mktemp("ft")
    pre_cfg = write_cfg(root / "pre.cfg", output_dir=root / "pre", steps=4)
    assert run("pretrain", str(pre_cfg)) == 0
    ft_cfg = write_cfg(root / "ft.cfg", output_dir=root / "ft",
                       dataset="synthetic-symbols", steps=8,
                       checkpoint=root / "pre" / "checkpoint.stpl")
    assert run("finetune", str(ft_cfg)) == 0
    return root / "ft" / "checkpoint.stpl"


class TestFinetuneAndDecode:
    def test_finetuned_checkpoint_carries_head(self, finetuned):
        ck = load_checkpoint(finetuned)
        assert "head.weight" in ck.params
        assert ck.meta["vocab_size"] == 4

    def test_decode_real_wav_deterministic(self, finetuned, tmp_path, capsys):
        wav = tmp_path / "tone.wav"
        write_wav(wav, synth_audio(7, seconds=1.0))
        assert run("decode", str(finetuned), str(wav), "--config", "2-1-1") == 0
        first = capsys.readouterr().out
        assert run("decode", str(finetuned), str(wav), "--config", "2-1-1") == 0
        assert capsys.readouterr().out == first

    def test_decode_silence_no_crash(self, finetuned, tmp_path, capsys):
        wav = tmp_path / "silence.wav"
        write_wav(wav, np.zeros(16000))
        assert run("decode", str(finetuned), str(wav)) == 0
        line = capsys.readouterr().out.strip()
        assert line.startswith(str(wav))

    def test_decode_rejects_stereo(self, finetuned, tmp_path, capsys):
        path = tmp_path / "stereo.wav"
        with wave.open(str(path), "wb") as fh:
            fh.setnchannels(2)
            fh.setsampwidth(2)
            fh.setframerate(16000)
            fh.writeframes(b"\x00\x00" * 200)
        assert run("decode", str(finetuned), str(path)) == 2
        assert "mono" in capsys.readouterr().err

    def test_decode_rejects_wrong_rate(self, finetuned, tmp_path, capsys):
        path = tmp_path / "slow.wav"
        with wave.open(str(path), "wb") as fh:
            fh.setnchannels(1)
            fh.setsampwidth(2)
            fh.setframerate(8000)
            fh.writeframes(b"\x00\x00" * 200)
        assert run("decode", str(finetuned), str(path)) == 2
        assert "16000" in capsys.readouterr().err

    def test_decode_truncated_checkpoint_exits_two(self, finetuned, tmp_path, capsys):
        cut = tmp_path / "cut.stpl"
        blob = finetuned.read_bytes()
        cut.write_bytes(blob[:len(blob) // 2])
        wav = tmp_path / "a.wav"
        write_wav(wav, synth_audio(3))
        assert run("decode", str(cut), str(wav)) == 2
        assert "truncated" in capsys.readouterr().err

    def test_decode_missing_wav_exits_two(self, finetuned, tmp_path, capsys):
        missing = tmp_path / "absent.wav"
        assert run("decode", str(finetuned), str(missing)) == 2
        err = capsys.readouterr().err
        assert str(missing) in err and "Traceback" not in err

    @pytest.mark.parametrize("cut", [1, 1000], ids=["mid-sample", "whole-samples"])
    def test_decode_truncated_wav_exits_two(self, finetuned, tmp_path, capsys, cut):
        wav = tmp_path / "cut.wav"
        write_wav(wav, synth_audio(5, seconds=0.5))
        wav.write_bytes(wav.read_bytes()[:-cut])
        assert run("decode", str(finetuned), str(wav)) == 2
        err = capsys.readouterr().err
        assert "truncated" in err and "Traceback" not in err

    def test_decode_without_head_rejected(self, tmp_path, capsys):
        pre_cfg = write_cfg(tmp_path / "p.cfg", output_dir=tmp_path / "pre", steps=2)
        assert run("pretrain", str(pre_cfg)) == 0
        wav = tmp_path / "t.wav"
        write_wav(wav, synth_audio(3))
        assert run("decode", str(tmp_path / "pre" / "checkpoint.stpl"), str(wav)) == 2
        assert "head" in capsys.readouterr().err


def _rewritten(finetuned, path, problem):
    """A copy of ``finetuned`` that parses but carries ``problem``."""
    ck = load_checkpoint(finetuned)
    meta = ck.meta
    if problem == "shape":
        ck.params["layer0.ffn.b1"] = ck.params["layer0.ffn.b1"][:7]
    elif problem == "meta":
        meta = ["phase", "finetune"]
    elif problem == "head_rows":
        ck.params["head.weight"] = ck.params["head.weight"][:32]
    elif problem == "head_bias":
        ck.params["head.bias"] = ck.params["head.bias"][:4]
    elif problem.startswith("vocab_"):
        meta = {**meta, "vocab_size": {"vocab_text": "four", "vocab_bool": True,
                                       "vocab_wide": 7}[problem]}
    else:
        meta = {**meta, "token_vocab": {"a": "one", "b": 2}}
    save_checkpoint(path, ck.config, ck.params, meta)
    return path


BAD_CONTENT_MESSAGES = {
    "shape": "'layer0.ffn.b1' has shape (7,), expected (256,)",
    "meta": "meta is not a JSON object",
    "token_vocab": "token_vocab must map tokens to integer ids",
    "head_rows": "head.weight (32, 5) and head.bias (5,) must be (64, V+1) and (V+1,)",
    "head_bias": "head.weight (64, 5) and head.bias (4,) must be (64, V+1) and (V+1,)",
    "vocab_text": "meta vocab_size must be a positive integer, got 'four'",
    "vocab_bool": "meta vocab_size must be a positive integer, got True",
    "vocab_wide": "must be (64, V+1) and (V+1,) with V = vocab_size 7",
}


class TestBadCheckpointContents:
    @pytest.mark.parametrize("problem,command", [
        ("shape", "decode"), ("shape", "sweep"), ("meta", "decode"), ("token_vocab", "decode"),
        ("head_rows", "decode"), ("head_rows", "sweep"), ("head_bias", "decode"),
        ("head_bias", "sweep"), ("vocab_text", "sweep"), ("vocab_bool", "sweep"),
        ("vocab_wide", "sweep"),
    ])
    def test_exits_two_naming_the_file(self, finetuned, tmp_path, capsys, problem, command):
        bad = _rewritten(finetuned, tmp_path / "bad.stpl", problem)
        if command == "decode":
            wav = tmp_path / "a.wav"
            write_wav(wav, synth_audio(3))
            argv = ["decode", str(bad), str(wav)]
        else:
            cfg = write_cfg(tmp_path / "s.cfg", output_dir=tmp_path / "out", checkpoint=bad,
                            utterances=1)
            argv = ["sweep", str(cfg), "--no-measure"]
        assert run(*argv) == 2
        err = capsys.readouterr().err
        assert f"{bad}: " in err and BAD_CONTENT_MESSAGES[problem] in err


def _with_header_config(finetuned, path, field, value):
    """A copy of ``finetuned`` whose header config has ``field`` set to ``value``."""
    blob = finetuned.read_bytes()
    (length,) = struct.unpack("<I", blob[8:12])
    header = json.loads(blob[12:12 + length])
    header["config"][field] = value
    raw = json.dumps(header).encode()
    path.write_bytes(blob[:8] + struct.pack("<I", len(raw)) + raw + blob[12 + length:])
    return path


class TestBadCheckpointHeaderConfig:
    @pytest.mark.parametrize("field,value,message", [
        ("pos_conv_groups", 0, "pos_conv_groups must be >= 1"),
        ("depth", 1.5, "depth must be an integer, got 1.5"),
        ("heads", True, "heads must be an integer, got True"),
        ("depth", 10**9, "the header config needs"),
    ], ids=["groups-zero", "depth-float", "heads-bool", "depth-huge"])
    def test_decode_exits_two_naming_the_file(self, finetuned, tmp_path, capsys, field, value,
                                              message):
        bad = _with_header_config(finetuned, tmp_path / "bad.stpl", field, value)
        wav = tmp_path / "a.wav"
        write_wav(wav, synth_audio(3))
        assert run("decode", str(bad), str(wav)) == 2
        err = capsys.readouterr().err
        assert f"{bad}: " in err and message in err


class TestSweepCommand:
    def test_default_sweep_emits_four_rows(self, tmp_path):
        cfg = write_cfg(tmp_path / "s.cfg", output_dir=tmp_path / "out",
                        frames=40, utterances=1, repeats=3)
        assert run("sweep", str(cfg), "--no-measure") == 0
        lines = (tmp_path / "out" / "sweep.csv").read_text().splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 5
        rows = json.loads((tmp_path / "out" / "sweep.json").read_text())
        assert [r["config"] for r in rows] == ["1-1-1", "2-1-1", "2-2-1", "2-2-2"]
        profile = json.loads((tmp_path / "out" / "sweep_profile.json").read_text())
        assert all(r["decode_ms_median"] is None and r["timer_flagged"] is None
                   for r in profile)  # skipped, not zero

    def test_effective_config_replays_flags(self, tmp_path):
        cfg = write_cfg(tmp_path / "s.cfg", output_dir=tmp_path / "out",
                        frames=40, utterances=1, repeats=3)
        assert run("sweep", str(cfg), "--no-measure", "--configs", "2-1-2") == 0
        effective = tmp_path / "out" / "effective_config.txt"
        text = effective.read_text()
        assert "measure = false" in text and "sweep_configs = 2-1-2" in text
        assert run("sweep", str(effective), "--output-dir", str(tmp_path / "replay")) == 0
        first = (tmp_path / "out" / "sweep.csv").read_text()
        assert first.splitlines()[-1].startswith("2-1-2,")
        assert (tmp_path / "replay" / "sweep.csv").read_text() == first

    def test_flags_win_over_file_keys(self, tmp_path):
        cfg = write_cfg(tmp_path / "s.cfg", sweep_configs="2-2-2", measure="true")
        args = _build_parser().parse_args(["sweep", str(cfg), "--configs", "2-1-2",
                                           "--no-measure"])
        rc = _load_run_config(args)
        assert rc.sweep_configs == "2-1-2" and rc.measure is False

    def test_no_measure_outputs_match_golden(self, tmp_path):
        # recorded bytes: the CSV/JSON schema is frozen, and the MACs are exact
        cfg = tmp_path / "s.cfg"
        cfg.write_text("preset = tiny\nframes = 60\nutterances = 2\n")
        assert run("sweep", str(cfg), "--no-measure", "--output-dir", str(tmp_path / "out")) == 0
        out = tmp_path / "out"
        assert (out / "sweep.csv").read_text() == (
            CSV_HEADER + "\n"
            "1-1-1,tiny,120,15482880,1843200,3932160,7864320,1843200,0,,,,\n"
            "2-1-1,tiny,120,7526400,460800,1966080,3932160,921600,245760,,,,\n"
            "2-2-1,tiny,120,6804480,230400,1474560,3932160,921600,245760,,,,\n"
            "2-2-2,tiny,120,6197760,115200,983040,3932160,921600,245760,,,,\n")
        for name, digest in (
                ("sweep.csv", "3d792bd9fe3d5ba5b9263752dba05d131cb8c7a731dd1217cade153907170400"),
                ("sweep.json", "25bfc8b08a1f11967022ca030458c4d8d3f4b3b74e4dc7bf01ae8980a38633cc")):
            assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest, name

    def test_negative_frames_exit_two(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path / "s.cfg", output_dir=tmp_path / "out", frames=-5)
        assert run("sweep", str(cfg), "--no-measure") == 2
        err = capsys.readouterr().err
        assert "min_frames" in err and "Traceback" not in err
        assert not (tmp_path / "out").exists()

    def test_malformed_triplet_rejected_with_position(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path / "s.cfg", output_dir=tmp_path / "out")
        assert run("sweep", str(cfg), "--configs", "2-x-1") == 2
        assert "component 2" in capsys.readouterr().err

    def test_measured_sweep_fills_wall_columns(self, tmp_path):
        cfg = write_cfg(tmp_path / "s.cfg", output_dir=tmp_path / "out",
                        frames=30, utterances=1, repeats=3)
        assert run("sweep", str(cfg)) == 0
        rows = json.loads((tmp_path / "out" / "sweep.json").read_text())
        assert all(r["wall_ms_median"] is not None for r in rows)

    def test_profile_sidecar_keeps_decode_time_and_timer_flags(self, finetuned, tmp_path):
        cfg = write_cfg(tmp_path / "s.cfg", output_dir=tmp_path / "out",
                        utterances=1, repeats=3, checkpoint=finetuned)
        assert run("sweep", str(cfg)) == 0
        out = tmp_path / "out"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["out", "s.cfg"]
        assert sorted(p.name for p in out.iterdir()) == [
            "effective_config.txt", "sweep.csv", "sweep.json", "sweep_profile.json"]
        rows = json.loads((out / "sweep_profile.json").read_text())
        assert [r["config"] for r in rows] == ["1-1-1", "2-1-1", "2-2-1", "2-2-2"]
        for row in rows:
            assert set(row) == {"config", "decode_ms_median", "timer_flagged"}
            assert isinstance(row["decode_ms_median"], float) and row["decode_ms_median"] > 0
            assert isinstance(row["timer_flagged"], int) and row["timer_flagged"] >= 0
        assert set(json.loads((out / "sweep.json").read_text())[0]) == set(CSV_HEADER.split(","))

    def test_sweep_with_checkpoint_reports_symbol_error(self, finetuned, tmp_path):
        cfg = write_cfg(tmp_path / "s.cfg", output_dir=tmp_path / "out",
                        utterances=2, repeats=3, checkpoint=finetuned)
        assert run("sweep", str(cfg), "--no-measure") == 0
        rows = json.loads((tmp_path / "out" / "sweep.json").read_text())
        assert len(rows) == 4
        assert all(r["symbol_error"] is not None for r in rows)  # trade-off pairs


class TestFlagsReachRunConfig:
    """Every flag of a config-driven command is a run-config override, so
    ``effective_config.txt`` records it and a replay repeats the run."""

    @pytest.mark.parametrize("command", ["pretrain", "finetune", "sweep"])
    def test_every_flag_changes_the_run_config(self, tmp_path, command):
        cfg = write_cfg(tmp_path / "run.cfg")
        parser = _build_parser()
        (commands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        subparser = commands.choices[command]

        def loaded(*flags):
            return _load_run_config(parser.parse_args([command, str(cfg), *flags]))

        base = loaded()
        checked = []
        for action in subparser._actions:
            flag = max(action.option_strings, key=len, default=None)
            if flag is None or flag in ("--set", "--help"):
                continue
            if action.nargs == 0:
                candidates = [[flag]]
            elif action.choices:
                candidates = [[flag, choice] for choice in action.choices]
            else:
                candidates = [[flag, "7" if action.type is int else "2-1-2"]]
            assert any(loaded(*argv) != base for argv in candidates), (
                f"{command} {flag} does not reach the run config")
            checked.append(flag)
        assert "--seed" in checked and "--output-dir" in checked


class TestCostCommand:
    def test_cost_table(self, capsys):
        assert run("cost", "--preset", "tiny", "--frames", "50") == 0
        out = capsys.readouterr().out
        assert "1-1-1" in out and "2-2-2" in out

    def test_cost_bad_triplet(self, capsys):
        assert run("cost", "--config", "9") == 2


class TestBundledRecipes:
    def test_tiny_recipes_complete_in_budget(self, tmp_path):
        import time
        from pathlib import Path

        recipes = Path(__file__).resolve().parent.parent / "recipes"
        started = time.perf_counter()
        assert run("pretrain", str(recipes / "tiny_pretrain.cfg"),
                   "--output-dir", str(tmp_path / "pre"),
                   "--steps", "40") == 0
        assert run("finetune", str(recipes / "tiny_finetune.cfg"),
                   "--output-dir", str(tmp_path / "ft"), "--steps", "40",
                   "--set", f"checkpoint={tmp_path / 'pre' / 'checkpoint.stpl'}",
                   "--set", "dataset_size=32") == 0
        assert time.perf_counter() - started < 120
        assert (tmp_path / "ft" / "checkpoint.stpl").exists()

    def test_recipe_files_parse_cleanly(self):
        from pathlib import Path

        recipes = Path(__file__).resolve().parent.parent / "recipes"
        for name in ("tiny_pretrain.cfg", "tiny_finetune.cfg", "small_sweep.cfg"):
            load_config(recipes / name)
