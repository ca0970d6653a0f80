"""Self-test of the independent checker: it rejects two known forgeries.

Both forgeries pass the program's own ``validate`` at the time of
writing, because ``validate`` trusts stored fields:

1. a ``seminorm`` lower witness with ceiling 1/1000 "proves" a lower
   bound of 1000 for the unit vector e_(1,1), whose gauge is 1;
2. a ``DisjointRep`` with stored ``norms_sq`` 0 and a hull certificate
   covering one unit cell presents the vector 50 * e_(1,1) as scale 1.

The checker must refuse both, and must accept the genuine certificates
the program returns for the same vectors.  Every benchmark run ends with
this test; to run it alone, from the root of a checkout:

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import sys
from fractions import Fraction
from pathlib import Path

import checker


def _rejected(fn) -> str | None:
    """The checker's refusal message, or None when it accepted."""
    try:
        fn()
    except checker.CertificateError as err:
        return str(err)
    return None


def _program_accepts(forged, x) -> bool:
    try:
        forged.validate(x)
    except AssertionError:
        return False
    return True


def _accept_witness(x, witness, c) -> None:
    """check_lower plus the reference test ceiling >= C(p)."""
    import reference

    kind, ceiling = checker.check_lower(x, witness)
    if kind in ("seminorm", "pairing") and not reference.at_least(ceiling, c):
        raise checker.CertificateError(f"ceiling {ceiling} below C(p)")


def forgeries(api):
    """(name, vector, forged object, checker call) for both forgeries."""
    p = api.DEFAULT_P
    x1 = api.TriVector({(1, 1): 1})
    forged_lower = api.GaugeLowerWitness(Fraction(1000), "seminorm", (), Fraction(1, 1000))
    x2 = api.TriVector({(1, 1): 50})
    bogus = api.HullCertificate((api.GridSeq((1,)),), (Fraction(1),), Fraction(1))
    rep = api.DisjointRep((x2,), (bogus,), (Fraction(0),), p, Fraction(1))
    forged_upper = api.GaugeCertificate((Fraction(1),), (rep,), Fraction(1))
    return [
        ("seminorm ceiling 1/1000", x1, forged_lower, lambda c: _accept_witness(x1, forged_lower, c)),
        ("stored norms_sq 0", x2, forged_upper, lambda c: checker.check_upper(x2, forged_upper, p)),
    ]


def run(api, c) -> list[tuple[str, str, bool]]:
    """Raise CertificateError unless the checker refuses each forgery and
    accepts the genuine intervals; returns (forgery, refusal, program verdict)."""
    p = api.DEFAULT_P
    out = []
    for name, x, forged, check in forgeries(api):
        refusal = _rejected(lambda: check(c))
        if refusal is None:
            raise checker.CertificateError(f"checker accepted the forgery '{name}'")
        out.append((name, refusal, _program_accepts(forged, x)))
        genuine = api.gauge_interval(x, p)
        checker.check_upper(x, genuine.upper, p)
        _accept_witness(x, genuine.lower, c)
    return out


if __name__ == "__main__":
    sys.path.insert(0, str(Path.cwd() / "src"))
    import reference
    import trigauge

    c = reference.c_constant(trigauge.DEFAULT_P.num, trigauge.DEFAULT_P.den)
    for name, refusal, program_accepts in run(trigauge, c):
        verdict = "accepts" if program_accepts else "rejects"
        print(f"forgery '{name}': checker rejects ({refusal}); program validate {verdict}")
    print("selftest ok")
