"""The verify suite: a check's data depends on its seed alone."""

import json
import os
import subprocess
import sys
from pathlib import Path

import stochpool
from stochpool import verify
from stochpool.tensor import Tensor


def fd_check_values(seed: int) -> list:
    """fn(*arrays) of every finite-difference check that verify runs at ``seed``.

    ``verify.check_gradients`` is swapped for a recorder, so no difference
    is taken and each check sees a zero error.
    """
    values = []

    def record(fn, arrays, **_):
        values.append(fn(*[Tensor(a) for a in arrays]).item())
        return 0.0

    real = verify.check_gradients
    verify.check_gradients = record
    try:
        results = verify.run_checks("_fd", seed=seed)
    finally:
        verify.check_gradients = real
    assert results and all(r.ok for r in results), [r.detail for r in results]
    return values


def test_seed_after_another_seed_equals_fresh_run():
    fd_check_values(0)
    after_seed_0 = fd_check_values(5)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(stochpool.__file__).resolve().parents[1]), env.get("PYTHONPATH", "")])
    script = ("import json, sys; sys.path.insert(0, sys.argv[1]); import test_verify; "
              "print(json.dumps(test_verify.fd_check_values(5)))")
    fresh = subprocess.run([sys.executable, "-c", script, str(Path(__file__).resolve().parent)],
                           env=env, capture_output=True, text=True, check=True)
    assert after_seed_0 == json.loads(fresh.stdout)
