"""Seeded fuzzing of every input parser, through ``stochpool.cli.main``.

Each test mutates one kind of input (checkpoint header values, checkpoint
bytes, WAV header bytes, run-config values, manifest lines) and runs the
command that reads it. Every run must end in exit code 0, 1 or 2; any
other exception escapes ``main`` and fails the test with its traceback.
The mutations use no unbounded size that the program would accept, so
every run stays small.
"""

import json
import random
import struct

import numpy as np
import pytest

from stochpool.cli import main
from stochpool.data import synth_audio
from stochpool.encoder import EncoderConfig, EncoderModel, save_checkpoint
from wavfile import write_wav

MICRO = EncoderConfig(model_dim=8, depth=1, heads=2, base_channels=2, pos_conv_kernel=3,
                      pos_conv_groups=2)
BAD_VALUES = (0, -1, 1.5, "x", None, [], {}, True, 10**9)
BAD_TEXT = ("0", "-1", "1.5", "x", "", "nan", "inf", "true", "1,0", "0-1-1", "3-3-3", ",",
            "1e9", "2-2", "synthetic-sines", "synthetic-symbols")


def exit_code(argv) -> int:
    try:
        code = main([str(a) for a in argv])
    except SystemExit as exc:  # argparse rejects the command line
        code = exc.code
    assert code in (0, 1, 2), f"exit code {code!r} for {argv}"
    return code


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """A micro-model checkpoint with an output head, one without, and a WAV."""
    root = tmp_path_factory.mktemp("fuzz")
    model = EncoderModel(MICRO, seed=1)
    rng = np.random.default_rng(1)
    head = {"head.weight": rng.normal(size=(8, 5)), "head.bias": rng.normal(size=5)}
    save_checkpoint(root / "head.stpl", MICRO, {**model.params, **head},
                    {"vocab_size": 4, "token_vocab": {"a": 1, "b": 2, "c": 3, "d": 4}})
    save_checkpoint(root / "plain.stpl", MICRO, model.params, {"phase": "pretrain"})
    write_wav(root / "a.wav", synth_audio(3, seconds=0.3))
    return root


def with_header(blob: bytes, header: dict) -> bytes:
    (length,) = struct.unpack("<I", blob[8:12])
    raw = json.dumps(header).encode()
    return blob[:8] + struct.pack("<I", len(raw)) + raw + blob[12 + length:]


def mutate_bytes(rng: random.Random, blob: bytes, region: int) -> bytes:
    """One to three random edits (bit flip, byte set, cut, insert) within the
    first ``region`` bytes."""
    out = bytearray(blob)
    for _ in range(rng.randint(1, 3)):
        at = rng.randrange(min(region, len(out)) or 1)
        kind = rng.randrange(4)
        if kind == 0 and at < len(out):
            out[at] ^= 1 << rng.randrange(8)
        elif kind == 1 and at < len(out):
            out[at] = rng.randrange(256)
        elif kind == 2:
            del out[at:at + rng.randint(1, 8)]
        else:
            out[at:at] = bytes(rng.randrange(256) for _ in range(rng.randint(1, 4)))
    return bytes(out)


def test_checkpoint_header_values(inputs, tmp_path):
    rng = random.Random(11)
    blob = (inputs / "head.stpl").read_bytes()
    (length,) = struct.unpack("<I", blob[8:12])
    good = json.loads(blob[12:12 + length])
    bad = tmp_path / "bad.stpl"
    assert exit_code(["decode", inputs / "head.stpl", inputs / "a.wav"]) == 0
    for _ in range(40):
        header = json.loads(json.dumps(good))
        for _ in range(rng.randint(1, 2)):
            value = rng.choice(BAD_VALUES)
            key = rng.choice(sorted(good["config"]) + ["vocab_size", "token_vocab", "meta"])
            if key == "meta":
                header["meta"] = value
            elif key in good["config"]:
                header["config"][key] = value
            elif isinstance(header["meta"], dict):
                header["meta"][key] = value
        bad.write_bytes(with_header(blob, header))
        exit_code(["decode", bad, inputs / "a.wav"])


def test_checkpoint_bytes(inputs, tmp_path):
    rng = random.Random(12)
    blob = (inputs / "head.stpl").read_bytes()
    bad = tmp_path / "bad.stpl"
    bad.write_bytes(blob)
    assert exit_code(["decode", bad, inputs / "a.wav"]) == 0
    for _ in range(60):
        bad.write_bytes(mutate_bytes(rng, blob, len(blob)))
        exit_code(["decode", bad, inputs / "a.wav"])


def test_wav_header_bytes(inputs, tmp_path):
    rng = random.Random(13)
    blob = (inputs / "a.wav").read_bytes()
    bad = tmp_path / "bad.wav"
    bad.write_bytes(blob)
    assert exit_code(["decode", inputs / "head.stpl", bad]) == 0
    for _ in range(60):
        bad.write_bytes(mutate_bytes(rng, blob, 44))
        exit_code(["decode", inputs / "head.stpl", bad])


def test_run_config_values(inputs, tmp_path):
    rng = random.Random(14)
    base = {"checkpoint": inputs / "head.stpl", "steps": 1, "batch_size": 1,
            "dataset_size": 2, "val_size": 1, "utterances": 1, "frames": 12, "measure": "false",
            "output_dir": tmp_path / "out"}
    cfg = tmp_path / "run.cfg"

    def run(command, **changes):
        dataset = "synthetic-symbols" if command == "finetune" else "synthetic-sines"
        values = {**base, "dataset": dataset, **changes}
        cfg.write_text("".join(f"{k} = {v}\n" for k, v in values.items()))
        return exit_code([command, cfg])

    commands = ("pretrain", "finetune", "sweep")
    assert [run(command) for command in commands] == [0, 0, 0]
    keys = ("preset", "seed", "mode", "fixed_config", "squeeze_set", "kv_set", "q_set", "steps",
            "batch_size", "learning_rate", "eval_interval", "freeze_extractor", "dataset",
            "dataset_size", "val_size", "vocab_size", "frames", "utterances", "checkpoint",
            "sweep_configs", "repeats", "measure")
    for _ in range(30):
        run(rng.choice(commands), **{rng.choice(keys): rng.choice(BAD_TEXT)})


def test_manifest_lines(inputs, tmp_path):
    rng = random.Random(15)
    (tmp_path / "dir").mkdir()
    lines = ["{wav}\ta b", "{wav}\t", "{wav}\ta\tb", "{wav}", "missing.wav\ta", "dir\ta", "\t",
             "", "   ", "# {wav}\ta", "{wav}\t" + " ".join("abcd" * 12), "{wav} \t a  b "]
    manifest = tmp_path / "m.tsv"
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"checkpoint = {inputs / 'plain.stpl'}\ndataset = {manifest}\nsteps = 1\n"
                   f"batch_size = 1\noutput_dir = {tmp_path / 'out'}\n")
    manifest.write_text(lines[0].format(wav=inputs / "a.wav"))
    assert exit_code(["finetune", cfg]) == 0
    for _ in range(30):
        text = rng.choice(("\n", "\r\n")).join(
            rng.choice(lines).format(wav=inputs / "a.wav") for _ in range(rng.randint(1, 4)))
        raw = text.encode()
        if rng.random() < 0.3:
            raw = mutate_bytes(rng, raw, len(raw))
        manifest.write_bytes(raw)
        exit_code(["finetune", cfg])
