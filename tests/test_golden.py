"""Golden outputs: constructions must reproduce recorded files byte for byte.

Each case runs one construction (determinize, complete, minimize, a
product, complement, or a canonical form) on a seeded genlib
input in one algebra and compares the SHA-256 of emit_sfa's text with
the digest in data/golden_emit.json.  The digests pin predicates, state
names and transition order, so a change to how the algebra decides
emptiness cannot silently change what is built.

Regenerate only when a construction's output is meant to change:

    PYTHONPATH=src python tests/test_golden.py
"""

import hashlib
import json
import os
import pathlib
import random
import subprocess
import sys

import pytest

import symfa
from symfa import (
    ProductMode,
    canonical_minimal_neat,
    canonical_minimal_normalized,
    complement,
    complete,
    determinize,
    emit_sfa,
    interval_binding,
    minimize,
    product,
    propositional_binding,
)
from genlib import (
    rand_det_interval_sfa,
    rand_det_prop_sfa,
    rand_neat_interval_sfa,
    rand_neat_prop_sfa,
    rand_sfa,
)

GOLDEN = pathlib.Path(__file__).parent / "data" / "golden_emit.json"
SEEDS = 20


def _inputs(algebra, s):
    """Two unrestricted (even s) or neat (odd s) automata and one
    deterministic one, from a per-case seed.  Propositional k cycles 3..5."""
    rng = random.Random(f"golden/{algebra}/{s}")
    if algebra == "interval":
        binding = interval_binding()
        if s % 2 == 0:
            a, b = (rand_sfa(rng, binding, n_max=4, m_max=3) for _ in range(2))
        else:
            a, b = rand_neat_interval_sfa(rng), rand_neat_interval_sfa(rng)
        det = rand_det_interval_sfa(rng, complete=s % 4 < 2, neat=s % 3 != 0)
    else:
        k = 3 + s % 3
        binding = propositional_binding([f"p{i + 1}" for i in range(k)])
        if s % 2 == 0:
            a, b = (rand_sfa(rng, binding, n_max=4, m_max=3) for _ in range(2))
        else:
            a, b = rand_neat_prop_sfa(rng, k), rand_neat_prop_sfa(rng, k)
        det = rand_det_prop_sfa(rng, k, complete=s % 4 < 2)
    return a, b, det


def outputs():
    """case id -> emitted text, for every case in both algebras."""
    out = {}
    for algebra in ("interval", "propositional"):
        for s in range(SEEDS):
            a, b, det = _inputs(algebra, s)
            da, db = determinize(a), determinize(b)
            built = {
                "determinize": da,
                "complete": complete(a),
                "minimize-determinized": minimize(da),
                "minimize": minimize(det),
                "intersect": product(a, b, ProductMode.INTERSECT),
                "union": product(complete(da), complete(db), ProductMode.UNION),
                "complement": complement(det),
                "complement-determinized": complement(da),
            }
            for name, x in (("a", a), ("b", b), ("det", det)):
                built[f"canonical-neat-{name}"] = canonical_minimal_neat(x)
                built[f"canonical-normalized-{name}"] = canonical_minimal_normalized(x)
            for op, sfa in built.items():
                out[f"{algebra}/{s}/{op}"] = emit_sfa(sfa)
    return out


def _digest(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def test_constructions_reproduce_golden_outputs():
    want = json.loads(GOLDEN.read_text())
    got = {case: _digest(text) for case, text in outputs().items()}
    assert set(got) == set(want)
    changed = sorted(case for case in want if got[case] != want[case])
    assert not changed, f"outputs differ from the recorded ones: {changed}"


@pytest.mark.parametrize("hash_seed", ["0", "1"])
def test_golden_outputs_do_not_depend_on_the_hash_seed(hash_seed):
    """Sets and dicts keyed by values order by the values' __hash__, which
    string hashing salts per process; the outputs must not follow it."""
    path = [str(pathlib.Path(p).resolve().parent) for p in (symfa.__path__[0], __file__)]
    env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=os.pathsep.join(path))
    code = "import test_golden; test_golden.test_constructions_reproduce_golden_outputs()"
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert (done.returncode, done.stderr) == (0, "")


if __name__ == "__main__":
    digests = {case: _digest(text) for case, text in outputs().items()}
    GOLDEN.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(digests)} digests to {GOLDEN}")
