"""The law suite and the expression language.

Every identity in the library is registered as a named law that runs over
seeded random trials. Canary mutations deliberately break one internal sign
or range to prove the suite would notice; a failing law keeps the witness of
its first failing trial, which replays and shrinks. Small expressions can also be written in a tiny
script language and evaluated on either backend.
"""
import numpy as np

from preoperad import (
    CoefficientRing,
    EndoBackend,
    TrialConfig,
    eval_script,
    laws,
)

SCRIPT = """\
# cup of two declared tables, dimension 1
let mu: deg 2 = [1];
let f: deg 1 = [2];
let g: deg 1 = [3];
cup(f, g)
"""


def main():
    print(f"{len(laws.list_laws())} registered laws, e.g.:")
    for law in laws.list_laws()[:3]:
        print(f"  {law.law_id}: {law.description}")

    cfg = TrialConfig(backend="endo", prime=97, dim=1, trials=50, seed=0)
    report = laws.run_law("L08-main-theorem", cfg)
    print(f"L08-main-theorem: {report.status}, {report.trials} trials, "
          f"{report.vacuous} vacuous")

    # flip one sign inside cup and the suite notices immediately
    bent = TrialConfig(backend="endo", prime=97, dim=1, trials=50, seed=0,
                       mutations=("cup-sign-flip",))
    broken = [r.law_id for r in (laws.run_law(i, bent) for i in
                                 ("L06-cup-product", "L10-delta-expansion"))
              if r.status == "fail"]
    print(f"with cup-sign-flip these fail: {broken}")

    # witnesses replay and shrink; the exchange-sign canary fails only
    # trials where f and g both have even degree, and 24 trials catch it at
    # every seed 0-19
    canary = TrialConfig(backend="endo", prime=97, dim=2, trials=24, seed=2,
                         mutations=("b-relation-sign-drop",))
    witness = laws.run_law("L02-relation-left", canary).failures[0]
    small = laws.shrink(witness)
    print(f"witness degrees {witness['degrees']} "
          f"shrink to {small['degrees']}; still fails: "
          f"{laws.replay(small) is not None}")

    # the script language evaluates on a backend
    backend = EndoBackend(CoefficientRing.prime_field(97), 1)
    value = eval_script(SCRIPT, backend)
    print(f"script cup(f, g) evaluates to entries "
          f"{value.serialize()['entries']} in degree {value.degree}")

    # undeclared names draw seeded random tables
    rand = eval_script("let f: deg 1; bracket(f, mu)", backend,
                       rng=np.random.default_rng(4))
    print(f"random-input script gives degree {rand.degree} entries "
          f"{rand.serialize()['entries']}")


if __name__ == "__main__":
    main()
