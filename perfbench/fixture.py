"""The mined function-2 rule set the ``serve`` and ``warehouse`` workloads use.

``fixtures/mined_f2.json`` is ``ruleset_to_json`` of the rules one ``mine``
fit produces, plus a ``provenance`` block naming the configuration.  It is
committed so the other workloads do not pay a ~15 s fit, and ``mine`` checks
every fit against it.

    python3 perfbench/fixture.py check   # re-mine and assert identical rules
    python3 perfbench/fixture.py write   # re-mine and rewrite the fixture
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

PATH = Path(__file__).resolve().parent / "fixtures" / "mined_f2.json"


def rules_payload(ruleset) -> dict:
    """The comparable part of a rules document: rules, classes, default."""
    from repro.rules.serialization import ruleset_to_json

    payload = json.loads(ruleset_to_json(ruleset))
    payload.pop("name", None)
    return payload


def load_document() -> dict:
    return json.loads(PATH.read_text())


def load_ruleset():
    from repro.rules.serialization import ruleset_from_json

    return ruleset_from_json(PATH.read_text())


def provenance() -> dict:
    import mine

    config = mine.experiment_config()
    return {
        "produced_by": "python3 perfbench/fixture.py write",
        "function": mine.FUNCTION,
        "n_train": config.n_train,
        "perturbation": mine.PERTURBATION,
        "data_seed": config.data_seed,
        "network_seed": config.network_seed,
        "splitter_seed": mine.SPLITTER_SEED,
        "training_iterations": config.training_iterations,
        "retrain_iterations": config.retrain_iterations,
        "pruning_rounds": config.pruning_rounds,
        "openblas_threads": os.environ.get("OPENBLAS_NUM_THREADS", ""),
    }


def dumps(document: dict) -> str:
    """JSON with one rule per line, so a re-mined fixture diffs by rule."""
    head = {k: v for k, v in document.items() if k != "rules"}
    rules = ",\n".join("  " + json.dumps(rule) for rule in document["rules"])
    return json.dumps(head, indent=1)[:-2] + ',\n "rules": [\n' + rules + "\n ]\n}\n"


def write() -> int:
    import mine
    from repro.rules.serialization import ruleset_to_json

    fitted = mine.fit()
    document = json.loads(ruleset_to_json(fitted.rules_))
    document["name"] = "mined-f2"
    document["provenance"] = provenance()
    PATH.parent.mkdir(exist_ok=True)
    PATH.write_text(dumps(document))
    print(f"wrote {fitted.rules_.n_rules} rules to {PATH}")
    return 0


def check() -> int:
    import mine

    fitted = mine.fit()
    mined = rules_payload(fitted.rules_)
    committed = rules_payload(load_ruleset())
    if mined != committed:
        print(
            f"FAIL: re-mined {len(mined['rules'])} rules differ from the "
            f"{len(committed['rules'])}-rule fixture {PATH}"
        )
        return 1
    if load_document().get("provenance") != provenance():
        print("FAIL: the fixture's provenance does not match the mine configuration")
        return 1
    print(f"ok: re-mined rules equal the {len(committed['rules'])}-rule fixture")
    return 0


if __name__ == "__main__":
    import run  # sets up sys.path and the BLAS thread count

    run.prepare_environment()
    command = sys.argv[1] if len(sys.argv) > 1 else "check"
    if command not in ("check", "write"):
        raise SystemExit("usage: python3 perfbench/fixture.py [check|write]")
    sys.exit(check() if command == "check" else write())
