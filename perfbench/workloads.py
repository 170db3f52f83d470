"""The benchmark's workloads: instances generated from a seed, one timed
pass over them, and the checks on every answer.

Every workload is a closed loop with one caller: the next instance starts
only when the previous one has returned.  A pass does a fixed amount of
work.  Budgets never bind, so no instance is skipped, and each pass starts
from empty caches.  The seed only orders the instances, so every seed does
the same work and gives the same results digest.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from time import perf_counter

from mincodes import cli, code, pointset, spectra
from mincodes import field as fields

#: above every cost estimate in the library, so no budget ever binds
BUDGET = 10 ** 18


class Checks:
    """Answer checks attempted and failed, with the first failures."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.skipped = 0
        self.messages: list[str] = []

    def expect(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.messages) < 20:
                self.messages.append(what)


def _digest(records: list[str]) -> str:
    return hashlib.sha256("\n".join(sorted(records)).encode()).hexdigest()


class Workload:
    """One workload: ``instances`` is a list of (key, params) in the
    seed's order; ``orders`` are the field orders it uses."""

    name = ""
    orders: tuple[int, ...] = ()

    def __init__(self, seed: int, expected: dict) -> None:
        self.expected = expected
        self.instances = self.generate()
        random.Random(seed).shuffle(self.instances)

    def generate(self) -> list[tuple[str, tuple]]:
        raise NotImplementedError

    def setup(self) -> None:
        """The set-up a user of the library pays once per process."""
        for q in self.orders:
            fields.field_of_order(q)

    def begin_pass(self):
        return None

    def run_one(self, params: tuple, state):
        """Run one instance; None marks a repeat that did no new work."""
        raise NotImplementedError

    def check_one(self, key: str, params: tuple, out, checks: Checks) -> str:
        """Check one answer; return its record for the results digest."""
        raise NotImplementedError

    def end_pass(self, state, checks: Checks) -> list[str]:
        return []

    def run_pass(self, tracer, checks: Checks) -> tuple[dict, str]:
        """One pass over every instance: (seconds per distinct instance,
        results digest).  Checks run outside the timed calls."""
        state = self.begin_pass()
        times: dict[str, float] = {}
        records: list[str] = []
        for key, params in self.instances:
            tracer.instance = key
            start = perf_counter()
            try:
                out = self.run_one(params, state)
            except pointset.BudgetExceeded as exc:
                checks.skipped += 1
                checks.expect(False, f"{key}: skipped: {exc}")
                continue
            except Exception as exc:  # a crash is a failed answer
                checks.expect(False, f"{key}: {type(exc).__name__}: {exc}")
                continue
            elapsed = perf_counter() - start
            if out is None:
                continue
            times[key] = elapsed
            records.append(self.check_one(key, params, out, checks))
        tracer.instance = None
        records.extend(self.end_pass(state, checks))
        digest = _digest(records)
        checks.expect(digest == self.expected["digest"],
                      f"results digest {digest[:16]} differs from the "
                      f"seed commit's {self.expected['digest'][:16]}")
        return times, digest


class VerifySweep(Workload):
    """``verify-all`` rows through ``cli.verify_one``: the weight
    enumeration does nearly all the work, the row reduction none."""

    name = "verify_sweep"
    orders = (2, 3, 4, 5, 7, 8, 9)
    #: largest q^k swept; sized so that one pass takes a few seconds
    MAX_POINTS = 2047

    def generate(self):
        return [
            (f"F{f}{'~' if tilde else ''} q={q} k={k} h={h}",
             (f, tilde, q, k, h))
            for f, tilde, q, k, h in cli._sweep_rows(self.orders,
                                                     self.MAX_POINTS)
        ]

    def begin_pass(self) -> dict:
        return {}  # verify_one's cache, fresh for every pass

    def run_one(self, params, cache):
        family, tilde, q, k, h = params
        return cli.verify_one(family, q, k, h, tilde, BUDGET, cache)

    def check_one(self, key, params, out, checks):
        status, detail = out
        if status == "SKIP":
            checks.skipped += 1
        # verify_one compares closed form and oracle for F1/F4 and their
        # lifts, and length and minimum-weight witnesses for F2/F3
        checks.expect(status == "PASS", f"{key}: {status} {detail}")
        return json.dumps([*params, status])

    def end_pass(self, cache, checks):
        dists = [v for v in cache.values()
                 if isinstance(v, code.WeightDistribution)]
        checks.expect(bool(dists), "no weight distribution in the cache")
        return [json.dumps(d.entries) for d in dists]


class CuttingSweep(Workload):
    """Acceptance criterion 9's sets at a smaller q^k cap: ``is_cutting``
    and the support check do the work, the weight path never runs."""

    name = "cutting_sweep"
    orders = (2, 3, 4, 5, 7)
    MAX_POINTS = 2047

    def generate(self):
        rows = []
        for family, ctor in sorted(pointset.FAMILIES.items()):
            h_min = pointset.FAMILY_H_MIN[family]
            for q in self.orders:
                k = h_min
                while q ** k <= self.MAX_POINTS:
                    rows.extend((f"F{family} q={q} k={k} h={h}",
                                 (family, q, k, h))
                                for h in range(h_min, k + 1))
                    k += 1
        return rows

    def begin_pass(self) -> dict:
        return {}  # verdict per distinct set

    def run_one(self, params, seen):
        family, q, k, h = params
        d = pointset.FAMILIES[family](fields.field_of_order(q), k, h)
        key = (q, d.dim, d.points)
        if key in seen:
            return None
        cut = pointset.is_cutting(d, budget=BUDGET)
        res = code.is_minimal_direct(d, budget=BUDGET)
        tilde_cut = None
        if cut:
            tilde_cut = pointset.is_cutting(pointset.tilde_join(d, d),
                                            budget=BUDGET)
        seen[key] = cut
        return d, cut, res, tilde_cut

    def check_one(self, key, params, out, checks):
        d, cut, res, tilde_cut = out
        checks.expect(cut == res.minimal,
                      f"{key}: is_cutting {cut} != minimal {res.minimal}")
        if cut:
            checks.expect(tilde_cut is True,
                          f"{key}: tilde lift of a cutting set not cutting")
        else:
            checks.expect(_is_violation(d, res.witness),
                          f"{key}: witness {res.witness} is no violation")
        points = hashlib.sha256(repr(d.points).encode()).hexdigest()
        return json.dumps([d.field.q, d.dim, len(d), points, cut,
                           res.minimal, res.witness, tilde_cut])

    def end_pass(self, seen, checks):
        non_cutting = sum(1 for cut in seen.values() if not cut)
        checks.expect(non_cutting == self.expected["non_cutting"],
                      f"{non_cutting} non-cutting sets, the seed commit "
                      f"finds {self.expected['non_cutting']}")
        return []


def _is_violation(d, witness) -> bool:
    """The witness pair's second support lies in the first, and the two
    codewords are not scalar multiples."""
    if witness is None:
        return False
    outer, inner = (code.codeword(d, f) for f in witness)
    if any(y and not x for x, y in zip(outer, inner)) or not any(inner):
        return False
    gf = d.field
    return not any(all(gf.mul(a, x) == y for x, y in zip(outer, inner))
                   for a in gf.nonzero_elements())


class LargeQ(Workload):
    """Single large instances through ``mincodes weights`` and
    ``mincodes minimal``, in process: few classes, many points."""

    name = "large_q"
    #: (family, q, k, h); both prime and prime-power q
    POOL = ((4, 49, 3, 3), (4, 53, 3, 3), (4, 32, 3, 3),
            (3, 13, 4, 3), (2, 11, 4, 3), (1, 9, 4, 4))
    orders = tuple(sorted({q for _, q, _, _ in POOL}))

    def __init__(self, seed, expected):
        super().__init__(seed, expected)
        # closed-form answers, computed before any timing
        self.lengths = {p: spectra.LENGTHS[p[0]](*p[1:])
                        for _, p in self.instances}
        self.min_weights = {}
        for _, (f, q, k, h) in self.instances:
            if f in (2, 3) and q > 5 and q % 2:
                min_fn = (spectra.family2_min_weight if f == 2
                          else spectra.family3_min_weight)
                self.min_weights[(f, q, k, h)] = min_fn(q, k, h)[0]

    def generate(self):
        return [(f"F{f} q={q} k={k} h={h}", (f, q, k, h))
                for f, q, k, h in self.POOL]

    def run_one(self, params, state):
        f, q, k, h = params
        argv = ["--family", str(f), "--q", str(q), "--k", str(k),
                "--h", str(h), "--budget", str(BUDGET)]
        return (_cli(["weights", "--method", "both", *argv]),
                _cli(["minimal", *argv]))

    def check_one(self, key, params, out, checks):
        (rc_w, text_w), (rc_m, text_m) = out
        checks.expect(rc_w == 0 and rc_m == 0,
                      f"{key}: exit codes {rc_w}, {rc_m}")
        try:
            weights, minimal = json.loads(text_w), json.loads(text_m)
            self._check_json(key, params, weights, minimal, checks)
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            checks.expect(False, f"{key}: malformed JSON: {exc!r}")
            return json.dumps([*params, "malformed"])
        return json.dumps([*params, weights["enumerate"],
                           weights.get("formula", {}).get("weights"),
                           weights["match"], minimal], sort_keys=True)

    def _check_json(self, key, params, weights, minimal, checks):
        f, q, k, h = params
        enum = weights["enumerate"]
        dist = {e["w"]: e["count"] for e in enum["weights"]}
        nonzero = sorted(w for w in dist if w)
        checks.expect(weights["match"] is True, f"{key}: match false")
        checks.expect((enum["n"], enum["dim"]) == (self.lengths[params], k),
                      f"{key}: [n, dim] = [{enum['n']}, {enum['dim']}]")
        checks.expect(sum(dist.values()) == q ** k,
                      f"{key}: {sum(dist.values())} codewords, not q^k")
        if f in (1, 4):
            checks.expect(weights["formula"]["weights"] == enum["weights"],
                          f"{key}: closed form != enumeration")
        if params in self.min_weights:
            checks.expect(nonzero[0] == self.min_weights[params],
                          f"{key}: min weight {nonzero[0]} != "
                          f"{self.min_weights[params]}")
        want = {"n": self.lengths[params], "dim": k, "d": nonzero[0],
                "ab_holds": q * nonzero[0] > (q - 1) * nonzero[-1],
                "minimality_method": "direct", "minimal_direct": True}
        checks.expect(minimal == want, f"{key}: minimal {minimal}")


def _cli(argv: list[str]) -> tuple[int, str]:
    """Run the CLI in process, as ``mincodes <argv>``; (exit code, stdout)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv)
    return rc, buf.getvalue()


WORKLOADS = {w.name: w for w in (VerifySweep, CuttingSweep, LargeQ)}
