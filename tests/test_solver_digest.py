"""scripts/solver_digest.py runs on the library's current API and prints the recorded digests.

The digest records a solver's exception as part of its output, so an API
change that breaks the script would change the digest instead of failing
it; the smoke run below fails on any error type the instances do not
produce by design.
"""

import importlib.util
import os
import re

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _digest_module():
    spec = importlib.util.spec_from_file_location(
        "solver_digest", os.path.join(ROOT, "scripts", "solver_digest.py")
    )
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_digest_smoke_run(monkeypatch):
    mod = _digest_module()
    monkeypatch.setattr(mod, "INSTANCES", 60)
    monkeypatch.setattr(mod, "MEDIUM_INSTANCES", 2)
    texts = []
    original = mod._call

    def recorded(fn, *args, **kwargs):
        text = original(fn, *args, **kwargs)
        texts.append((fn, text))
        return text

    monkeypatch.setattr(mod, "_call", recorded)
    solvers, models = mod.digest()
    assert re.fullmatch("[0-9a-f]{64}", solvers) and re.fullmatch("[0-9a-f]{64}", models)
    # empty maps, no n-pair assignment and too-small models are the only expected errors
    errors = {text.split(":")[0] for _, text in texts if re.match(r"\w+Error:", text)}
    assert errors <= {"ValueError", "NoPairsError"}, errors
    passes = [text for fn, text in texts if fn in (mod.hungarian_min, mod.hungarian_max)]
    assert len(passes) == 2 * (60 + 2)
    solved = [text for text in passes if not text.startswith("ValueError: empty eligibility")]
    assert solved and all(text.startswith("(CostMatching(pairs=((") for text in solved)


SOLVERS = "73b8c4d08acb9372297ea7a74cd3226a3c05765e01fbb251ff152d5c225dd9e1"
MODELS = "b3c8f54866e116a9bcd8e8e445f5876a9c50eda29fa900d79191512c4f2b2c19"


def test_digest_is_unchanged():
    """The full digest equals the two recorded lines.

    A change that alters solver results or model files on purpose updates
    both lines here and says so in CHANGES.md.
    """
    assert _digest_module().digest() == (SOLVERS, MODELS)
