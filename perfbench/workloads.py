"""The benchmark's workloads: each turns a seed into a list of units.

A unit is one problem instance and the steps run on it. A step is either a
`shorsim` command line, run in-process through `shorsim.cli.main`, or the one
paper check that has no command, `success_rate_estimate`. The program only
ever receives `n`, `x`, `ell` and seeds; everything else about a workload is
fixed here.

The generator uses its own number theory rather than `shorsim.numtheory`, so
a defect in the program cannot change which inputs the benchmark feeds it.
"""

from __future__ import annotations

import math
import random

# Cost of every workload grows with the order r of the base (the outcome
# table has about q * r rows), so the seed draws bases of a fixed order and
# moves n and x without moving the amount of work.

# control-ladder: control-register widths s (each rung doubles q = 2**s) and
# the order of every rung's base. Order 10 exists at every width, and with it
# the O(q**2) transform is about two thirds of a rung and building and
# writing the q * r outcome table about one third.
LADDER_WIDTHS = (11, 12, 13, 14)
LADDER_ORDER = 10

# multi-register: (n, ell) pairs whose full register space stays at or below
# 2**23 amplitudes, so each dense state fits in about 1 GB.
MULTI_REGISTER = ((15, 2), (15, 3), (21, 2), (35, 2))

# factor-sampling: every odd composite non-prime-power n up to this bound
# (q <= 4096), once per factor seed. How many bases `factor` draws before one
# works (none after a gcd shortcut, several after an odd order) sets both its
# time and, through its cache of distributions, the workload's peak memory;
# with seeds drawn per run that peak moved between 85 and 145 MB. So the
# factor seeds are fixed (between them they take every path: factored, gcd
# shortcut, odd order, trivial square root) and the workload seed draws the
# success-rate base and trial seeds.
FACTOR_MAX_N = 57
FACTOR_SEEDS = (0, 1)
SUCCESS_TRIALS = 20_000

WORKLOADS = ("control-ladder", "multi-register", "factor-sampling")

# One tiny command every child runs before timing; also the set-up probe.
WARM_UP = ["distribution", "--n", "15", "--x", "7"]


def order(x: int, n: int) -> int:
    """Multiplicative order of x modulo n (gcd(x, n) must be 1)."""
    y, r = x % n, 1
    while y != 1:
        y, r = (y * x) % n, r + 1
    return r


def _is_prime_power(n: int) -> bool:
    """True for p**k with p prime and k >= 1."""
    p = next(d for d in range(2, n + 1) if n % d == 0)
    while n % p == 0:
        n //= p
    return n == 1


def suitable(n: int) -> bool:
    """Odd, composite and not a prime power: what order finding can factor."""
    return n % 2 == 1 and n > 3 and not _is_prime_power(n)


def control_width(n: int) -> int:
    """s with n**2 <= 2**s < 2 * n**2."""
    return (n * n - 1).bit_length()


def bases(n: int, r: int | None = None) -> list[int]:
    """Bases coprime to n of order r, or of the largest order when r is None."""
    orders = {x: order(x, n) for x in range(2, n) if math.gcd(x, n) == 1}
    want = max(orders.values()) if r is None else r
    return [x for x, o in orders.items() if o == want]


def _cli(name: str, *argv) -> dict:
    return {"name": name, "cli": [str(a) for a in argv]}


def _control_ladder(rng: random.Random) -> list[dict]:
    units = []
    r = LADDER_ORDER
    for s in LADDER_WIDTHS:
        pairs = [
            (n, x)
            for n in range(9, 1 << (s // 2 + 1), 2)
            if control_width(n) == s and suitable(n)
            for x in bases(n, r)
        ]
        n, x = rng.choice(pairs)
        units.append(
            {
                "name": f"n={n} x={x} s={s} r={r}",
                "instance": {"n": n, "x": x, "r": r},
                "steps": [
                    _cli("distribution", "distribution", "--n", n, "--x", x),
                    _cli("bound", "bound", "--n", n, "--x", x),
                ],
            }
        )
    return units


def _multi_register(rng: random.Random) -> list[dict]:
    units = []
    for n, ell in MULTI_REGISTER:
        x = rng.choice(bases(n))
        flags = ("--n", n, "--x", x, "--ell", ell)
        units.append(
            {
                "name": f"n={n} x={x} ell={ell}",
                "instance": {"n": n, "x": x, "ell": ell},
                "steps": [
                    _cli("audit", "audit", *flags),
                    _cli("entanglement", "entanglement", *flags),
                    _cli("dense_gates", "distribution", *flags, "--backend", "dense",
                         "--qft", "gates"),
                    _cli("sparse_direct", "distribution", *flags),
                ],
            }
        )
    return units


def _factor_sampling(rng: random.Random) -> list[dict]:
    units = []
    for n in range(9, FACTOR_MAX_N + 1, 2):
        if not suitable(n):
            continue
        x = rng.choice(bases(n))
        for factor_seed in FACTOR_SEEDS:
            seed = rng.randrange(1 << 31)
            units.append(
                {
                    "name": f"n={n} factor_seed={factor_seed} x={x} seed={seed}",
                    "instance": {"n": n, "x": x, "seed": seed},
                    "steps": [
                        _cli("factor", "factor", "--n", n, "--seed", factor_seed),
                        {
                            "name": "success_rate",
                            "success_rate": {
                                "n": n, "x": x, "trials": SUCCESS_TRIALS, "seed": seed,
                            },
                        },
                    ],
                }
            )
    return units


_UNIT_LISTS = {
    "control-ladder": _control_ladder,
    "multi-register": _multi_register,
    "factor-sampling": _factor_sampling,
}


def units(workload: str, seed: int) -> list[dict]:
    """The unit list of `workload` for `seed`; the same seed gives the same list."""
    return _UNIT_LISTS[workload](random.Random(f"{workload}/{seed}"))
