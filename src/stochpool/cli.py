"""Command-line surface: verify, pretrain, finetune, sweep, decode, cost.

Exit codes: 0 success, 1 verification or metric failure, 2 usage/config
error. verify, pretrain, finetune and sweep take --seed; cost and decode
draw nothing at random. Every command runs with numpy's bundled OpenBLAS
pinned to one thread, so its bits do not depend on the host's CPU count.
pretrain, finetune and sweep read a run config file; each of their flags
stores into the config key that is its argparse ``dest`` (flags win over
``--set``, which wins over file keys), so the ``effective_config.txt``
they write replays the run exactly. ``--config`` sets ``fixed_config``,
and a non-empty ``fixed_config`` alone makes a pretrain or finetune run
deterministic; sweep rejects it, as its configurations come from
``sweep_configs``.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .attention import _blas_pinned_to_one_thread
from .cost_model import analytic_cost, sweep, write_csv, write_json, write_profile
from .ctc import greedy_decode
from .data import (
    ManifestDataset,
    SineFeatureDataset,
    SymbolFeatureDataset,
    read_wav,
)
from .encoder import EncoderConfig, EncoderModel, load_checkpoint, preset, save_checkpoint
from .errors import ConfigError, InputError, StochpoolError
from .runconfig import KEY_TYPES, RunConfig, apply_overrides, echo_effective_config, load_config
from .stochastic import STANDARD_CONFIGS, FactorSets, fixed_config, parse_triplet
from .training import TrainPlan, apply_head, finetune, pretrain_toy, write_train_log
from .verify import run_checks


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="stochpool",
                                     description="Stochastically compressed speech encoder")
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="run the verification suite")
    p_verify.add_argument("--filter", default=None, help="substring of group or check name")
    p_verify.add_argument("--seed", type=int, default=0)

    for name in ("pretrain", "finetune"):
        p = sub.add_parser(name, help=f"{name} a model from a run config file")
        p.add_argument("config_file", help="plain-text run configuration")
        p.add_argument("--seed", type=int)
        p.add_argument("--config", dest="fixed_config", metavar="TRIPLET",
                       help="train deterministically at this S_f-S_k-S_q (sets fixed_config)")
        p.add_argument("--steps", type=int)
        p.add_argument("--output-dir")
        p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                       help="override any run-config key")

    p_sweep = sub.add_parser("sweep", help="cost/accuracy table over configurations")
    p_sweep.add_argument("config_file")
    p_sweep.add_argument("--configs", dest="sweep_configs",
                         help="extra comma-separated triplets beyond the standard four "
                              "(sets sweep_configs)")
    p_sweep.add_argument("--seed", type=int)
    p_sweep.add_argument("--no-measure", dest="measure", action="store_const", const="false",
                         help="analytic columns only, skip wall-time measurement "
                              "(sets measure = false)")
    p_sweep.add_argument("--output-dir")
    p_sweep.add_argument("--set", action="append", default=[], metavar="KEY=VALUE")

    p_cost = sub.add_parser("cost", help="analytic MAC model only")
    p_cost.add_argument("--preset", default="tiny")
    p_cost.add_argument("--frames", type=int, default=50)
    p_cost.add_argument("--config", default=",".join(STANDARD_CONFIGS),
                        help="comma-separated triplets")
    p_cost.add_argument("--from-audio", action="store_true",
                        help="include the wave feature extractor")

    p_decode = sub.add_parser("decode", help="greedy-decode audio files")
    p_decode.add_argument("checkpoint")
    p_decode.add_argument("audio", nargs="+")
    p_decode.add_argument("--config", default="1-1-1", metavar="TRIPLET")
    return parser


def _overrides_from_args(args) -> dict:
    """The ``--set`` pairs, then every flag given: a flag's dest is its key."""
    overrides = {}
    for item in args.set:
        if "=" not in item:
            raise ConfigError(f"--set expects KEY=VALUE, got {item!r}")
        key, value = item.split("=", 1)
        overrides[key.strip()] = value.strip()
    overrides.update((key, value) for key, value in vars(args).items()
                     if key in KEY_TYPES and value is not None)
    return overrides


def _load_run_config(args) -> RunConfig:
    config = load_config(args.config_file)
    return apply_overrides(config, _overrides_from_args(args))


def _factor_sets(rc: RunConfig) -> FactorSets:
    return FactorSets(rc.factor_list("squeeze_set"), rc.factor_list("kv_set"),
                      rc.factor_list("q_set"))


def _plan(rc: RunConfig, loss: str, model_config: EncoderConfig) -> TrainPlan:
    """A non-empty ``fixed_config`` trains every step at that configuration;
    an empty one samples each step's configuration from the factor sets.
    Factors beyond ``model_config``'s ceilings are rejected here, before the
    command writes any output."""
    depth = model_config.depth
    fixed = fixed_config(*parse_triplet(rc.fixed_config), depth) if rc.fixed_config else None
    plan = TrainPlan(
        mode="stochastic" if fixed is None else "deterministic",
        steps=rc.steps,
        batch_size=rc.batch_size,
        learning_rate=rc.learning_rate,
        seed=rc.seed,
        loss=loss,
        sets=_factor_sets(rc) if fixed is None else None,
        fixed=fixed,
        eval_interval=rc.eval_interval,
        freeze_extractor=rc.freeze_extractor,
    )
    plan.check_fits(model_config)
    return plan


def _model_from(rc: RunConfig):
    """(model, extras, meta) from the checkpoint key or a fresh preset."""
    if rc.checkpoint:
        ck = load_checkpoint(rc.checkpoint)
        model, extras = ck.build_model()
        return model, extras, ck.meta
    return EncoderModel(preset(rc.preset), seed=rc.seed), {}, {}


def _head_from(extras: dict, model_dim: int, path, vocab: int | None = None):
    """The output head among the extra parameters of the checkpoint at
    ``path``, or None. Its weight must be (E, V+1) and its bias (V+1,), for
    the encoder width E and, when given, the vocabulary size V."""
    if "head.weight" not in extras or "head.bias" not in extras:
        return None
    weight, bias = extras["head.weight"].shape, extras["head.bias"].shape
    if not (len(weight) == 2 and weight[0] == model_dim and bias == weight[1:]
            and (vocab is None or weight[1] == vocab + 1)):
        where = "" if vocab is None else f" with V = vocab_size {vocab}"
        raise InputError(f"{path}: head.weight {weight} and head.bias {bias} must be "
                         f"({model_dim}, V+1) and (V+1,){where}")
    return {"head.weight": extras["head.weight"], "head.bias": extras["head.bias"]}


def _labeled_datasets(rc: RunConfig, model_dim: int):
    if rc.dataset == "synthetic-symbols":
        vocab = rc.count("vocab_size")
        train = SymbolFeatureDataset(rc.count("dataset_size"), model_dim, vocab=vocab,
                                     seed=rc.seed, split="train")
        val = SymbolFeatureDataset(rc.count("val_size"), model_dim, vocab=vocab,
                                   seed=rc.seed, split="val")
        return train, val, vocab, None
    if rc.dataset == "synthetic-sines":
        raise ConfigError("finetune needs a labeled dataset (synthetic-symbols or manifest)")
    train = ManifestDataset(rc.dataset)
    return train, None, len(train.vocab), train.vocab


def cmd_verify(args) -> int:
    results = run_checks(args.filter, seed=args.seed)
    if not results:
        print(f"no checks match filter {args.filter!r}", file=sys.stderr)
        return 2
    width = max(len(f"{r.group}/{r.name}") for r in results)
    for r in results:
        label = f"{r.group}/{r.name}"
        status = "PASS" if r.ok else "FAIL"
        print(f"{label:<{width}}  {status}  {r.seconds:7.3f}s  {'' if r.ok else r.detail}")
    failed = [r for r in results if not r.ok]
    print(f"{len(results) - len(failed)}/{len(results)} checks passed")
    return 0 if not failed else 1


def cmd_pretrain(args) -> int:
    rc = _load_run_config(args)
    if rc.dataset != "synthetic-sines":
        raise ConfigError(f"pretrain supports dataset=synthetic-sines, got {rc.dataset!r}")
    model, extras, _ = _model_from(rc)
    dataset = SineFeatureDataset(rc.count("dataset_size"), model.config.model_dim, seed=rc.seed)
    plan = _plan(rc, "masked_regression", model.config)
    out = Path(rc.output_dir)
    echo_effective_config(rc, out)
    emb = extras.get("pretrain.mask_embedding")
    result = pretrain_toy(model, plan, dataset, mask_embedding=emb)
    write_train_log(out / "train_log.jsonl", result.log)
    meta = {"phase": "pretrain", "preset": rc.preset, "seed": rc.seed, "mode": plan.mode}
    save_checkpoint(out / "checkpoint.stpl", model.config, result.params, meta)
    if result.log:
        print(f"pretrain: {len(result.log)} steps, loss {result.initial_loss:.4f} -> "
              f"{result.final_loss:.4f}")
    else:
        print("pretrain: 0 steps (checkpoint written unchanged)")
    print(f"checkpoint: {out / 'checkpoint.stpl'}")
    return 0


def cmd_finetune(args) -> int:
    rc = _load_run_config(args)
    model, extras, _ = _model_from(rc)
    train, val, vocab, token_vocab = _labeled_datasets(rc, model.config.model_dim)
    plan = _plan(rc, "ctc", model.config)
    head = _head_from(extras, model.config.model_dim, rc.checkpoint, vocab)
    out = Path(rc.output_dir)
    echo_effective_config(rc, out)
    result = finetune(model, plan, train, vocab, val_dataset=val, head=head)
    write_train_log(out / "train_log.jsonl", result.log)
    meta = {"phase": "finetune", "preset": rc.preset, "seed": rc.seed, "mode": plan.mode,
            "vocab_size": vocab}
    if token_vocab:
        meta["token_vocab"] = token_vocab
    save_checkpoint(out / "checkpoint.stpl", model.config, result.params, meta)
    if result.log:
        print(f"finetune: {len(result.log)} steps, loss {result.initial_loss:.4f} -> "
              f"{result.final_loss:.4f}, skipped {result.infeasible_skipped} infeasible")
    else:
        print("finetune: 0 steps (checkpoint written with fresh head)")
    print(f"checkpoint: {out / 'checkpoint.stpl'}")
    return 0


def cmd_sweep(args) -> int:
    rc = _load_run_config(args)
    if rc.fixed_config:
        raise ConfigError(f"sweep does not read fixed_config ({rc.fixed_config!r}); list "
                          f"configurations beyond the standard four in sweep_configs or --configs")
    model, extras, meta = _model_from(rc)
    vocab = meta["vocab_size"] if "vocab_size" in meta else rc.count("vocab_size")
    if "vocab_size" in meta and (type(vocab) is not int or vocab < 1):
        raise InputError(f"{rc.checkpoint}: meta vocab_size must be a positive integer, "
                         f"got {vocab!r}")
    head = _head_from(extras, model.config.model_dim, rc.checkpoint, vocab)
    triplets = list(STANDARD_CONFIGS) + [t for t in rc.sweep_configs.split(",") if t.strip()]
    configs = [fixed_config(*parse_triplet(t), model.config.depth) for t in triplets]
    if head is not None:
        dataset = SymbolFeatureDataset(rc.count("utterances"), model.config.model_dim,
                                       vocab=vocab, seed=rc.seed)
    else:
        dataset = SineFeatureDataset(rc.count("utterances"), model.config.model_dim, seed=rc.seed,
                                     min_frames=rc.frames, max_frames=rc.frames)
    out = Path(rc.output_dir)
    echo_effective_config(rc, out)
    reports = sweep(model, configs, dataset, preset=rc.preset, repeats=rc.repeats,
                    head=head, measure_time=rc.measure)
    write_csv(out / "sweep.csv", reports)
    write_json(out / "sweep.json", reports)
    write_profile(out / "sweep_profile.json", reports)
    for r in reports:
        wall = f"{r.wall_ms_median:10.2f} ms" if r.wall_ms_median is not None else "   (skipped)"
        err = f"  SER {r.symbol_error:.3f}" if r.symbol_error is not None else ""
        print(f"{r.config:>10}  {r.macs_total:>14,} MACs  {wall}{err}")
    print(f"wrote {out / 'sweep.csv'}, {out / 'sweep.json'} and {out / 'sweep_profile.json'}")
    return 0


def cmd_cost(args) -> int:
    enc = preset(args.preset)
    triplets = [t for t in args.config.split(",") if t.strip()]
    if not triplets:
        raise ConfigError("cost requires at least one config triplet")
    print("config      macs_total  attn_scores    attn_proj          ffn"
          "           fe     upsample")
    for t in triplets:
        s_f, s_k, s_q = parse_triplet(t)
        report = analytic_cost(fixed_config(s_f, s_k, s_q, enc.depth), enc, args.frames,
                               preset=args.preset, from_audio=args.from_audio)
        print(f"{report.config:>6}  {report.macs_total:>12,}  {report.macs_attn_scores:>11,}"
              f"  {report.macs_attn_proj:>11,}  {report.macs_ffn:>11,}"
              f"  {report.macs_fe:>11,}  {report.macs_upsample:>11,}")
    return 0


def cmd_decode(args) -> int:
    ck = load_checkpoint(args.checkpoint)
    model, extras = ck.build_model()
    head = _head_from(extras, model.config.model_dim, args.checkpoint)
    if head is None:
        raise InputError(f"{args.checkpoint}: no output head; fine-tune before decoding")
    s_f, s_k, s_q = parse_triplet(args.config)
    config = fixed_config(s_f, s_k, s_q, model.config.depth)
    token_vocab = ck.meta.get("token_vocab", {})
    if not isinstance(token_vocab, dict) or any(type(i) is not int for i in token_vocab.values()):
        raise InputError(f"{args.checkpoint}: meta token_vocab must map tokens to integer ids")
    inverse = {i: tok for tok, i in token_vocab.items()}
    for path in args.audio:
        audio = read_wav(path)
        feats = model.extract_features(audio)
        ids = greedy_decode(apply_head(model.forward(feats, config), head))
        rendered = " ".join(inverse.get(i, str(i)) for i in ids)
        print(f"{path}\t{rendered}")
    return 0


_COMMANDS = {
    "verify": cmd_verify,
    "pretrain": cmd_pretrain,
    "finetune": cmd_finetune,
    "sweep": cmd_sweep,
    "cost": cmd_cost,
    "decode": cmd_decode,
}


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        with _blas_pinned_to_one_thread():
            return _COMMANDS[args.command](args)
    except (ConfigError, InputError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except StochpoolError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
