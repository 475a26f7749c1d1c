"""Seeded job lists for the four workloads.

A job is an argv list for ``eolab.cli.main`` plus the spec the checker
needs.  Each workload has fixed quotas per job kind, and its numeric
parameters lie on ladders (one seeded value per stratum of the range), so
different seeds give different inputs but nearly the same total work and
the same latency quantiles.  Program files are written by the caller; the
program under test only sees argv and those files.

Each workload keeps a small fixed share of jobs that hit defects known at
the time the benchmark was written (``job["defect"]``), so that the
failures and memory they cause stay visible:
``deep``      expressions nested thousands deep (RecursionError),
``antichain`` antichains above size 10 at n=6 (exceed the job time limit),
``cache``     long non-repeating ``cmp`` jobs (grow the pattern cache).
"""

from __future__ import annotations

import json
import os
import random

FIXTURES = {
    "alternating": {"value": "i", "cost": "2 - (i mod 2)"},
    "countdown": {"value": "100 - 10*i", "cost": "1"},
    "evens": {"value": "2*i", "cost": "1"},
    "evens_only": {"value": "i", "cost": "1", "guard": "i mod 2 == 0"},
    "jumpy": {"value": "(i mod 3)*7 + i", "cost": "1"},
    "odds_fast": {"value": "i", "cost": "1 + 99*(1 - (i mod 2))", "guard": None},
    "slow_pairs": {"value": "i", "cost": "1 + 3*(i mod 2)"},
    "staggered": {"value": "i", "cost": "1 + 9*(1 - (i mod 2))"},
}

GRID = ((6, 3), (8, 3), (8, 4), (10, 3))
#: Rising-versus-falling searches (k, w, relation), costliest first: (8, 4)
#: eo exhausts 1.3M nodes in about 1.6 s.
HEAVY = [(k, w, r) for k, w in ((8, 4), (10, 3), (7, 4), (9, 3), (8, 3), (7, 3), (6, 4), (6, 3))
         for r in ("eo", "uniform")]
SUITES = ("preorder", "inversion", "theorem10", "theorem3", "hasse")
SUITE_CAP = {"preorder": 5, "inversion": 5, "theorem10": 5, "theorem3": 6, "hasse": 5}
DEEP_PARENS = 3000
DEEP_TERMS = 5000


def ladder(rng: random.Random, count: int, lo: float, hi: float) -> list[int]:
    """``count`` log-spaced integers in [lo, hi], ascending, one per stratum.

    The seed moves each value within the middle half of its stratum, so
    the sum and the quantiles of a ladder barely depend on the seed.
    """
    return [round(lo * (hi / lo) ** ((j + 0.25 + 0.5 * rng.random()) / count))
            for j in range(count)]


def _csv(values) -> str:
    return ",".join(map(str, values))


def _arith(rng: random.Random, depth: int) -> str:
    """A random arithmetic expression from the program grammar."""
    if depth == 0 or rng.random() < 0.3:
        return "i" if rng.random() < 0.6 else str(rng.randint(0, 12))
    op = rng.choice(("+", "+", "-", "*", "mod"))
    right = str(rng.randint(2, 9)) if op == "mod" else _arith(rng, depth - 1)
    return f"({_arith(rng, depth - 1)} {op} {right})"


def _program(rng: random.Random, family: str, m: int = 2) -> dict:
    """A generated program whose round count the family fixes.

    Input i halts in round max(i, cost(i)).  ``reach``: injective values
    and costs of at most 41, so k values take about k rounds.
    ``guarded``: the same with a guard passing one input in m, about m*k
    rounds.  ``repeat``: at most 9 distinct values, so k >= 10 runs to the
    cap; its per-round cost must not depend on the draw, so it has no
    guard and costs of at most 5.
    """
    a = rng.randint(2, 9)
    if family == "repeat":
        value = f"{_arith(rng, 2)} mod {rng.randint(3, 9)}"
    else:
        value = rng.choice((f"{a}*i + {rng.randint(0, 50)}", f"{a}*i + ({_arith(rng, 2)} mod {a})"))
    c = rng.randint(2, 4 if family == "repeat" else 40)
    cost = rng.choice(("1", f"1 + ({_arith(rng, 2)} mod {c})", f"{c} - (i mod {c})",
                       f"1 + {c}*(i mod 2)"))
    guard = None
    if family == "guarded":
        r = rng.randrange(m)
        guard = rng.choice((f"i mod {m} == {r}", f"(i + {rng.randint(1, 30)}) mod {m} == {r}",
                            f"i mod {m} == {r} or i < {rng.randint(2, 9)}"))
    return {"value": value, "cost": cost, "guard": guard}


class _Builder:
    """Accumulates jobs and program sources under one work directory."""

    def __init__(self, workdir: str):
        self.workdir = workdir
        self.jobs: list[dict] = []
        self.sources: dict[str, str] = {}

    def program(self, name: str, doc: dict) -> str:
        self.sources[name] = json.dumps({"name": name.split(".")[0], **doc}, sort_keys=True)
        return name

    def path(self, name: str) -> str:
        return os.path.join(self.workdir, name)

    def add(self, argv: list, spec: dict, fmt: str = "text", defect: str | None = None) -> None:
        if fmt != "text":
            argv = argv + ["--format", fmt]
        self.jobs.append({"argv": [str(a) for a in argv], "spec": {**spec, "format": fmt},
                          "defect": defect})


def _fixtures(b: _Builder) -> list[str]:
    return [b.program(f"{name}.json", doc) for name, doc in FIXTURES.items()]


def enumerate_jobs(rng: random.Random, b: _Builder) -> None:
    """``run`` on fixtures and generated programs; a third rescheduled.

    Cost grows with the square of the rounds run.  A heavy tier of 24
    jobs runs to a round cap on a ladder over 10^3-5*10^3; the rest stop
    after about k (or m*k) rounds, k on a ladder over 10-2000.
    """
    fixtures = _fixtures(b)
    heavy = ["countdown.json"] * 2 + [
        b.program(f"rep{j}.json", _program(rng, "repeat")) for j in range(22)]
    reach = iter(b.program(f"gen{j}.json", _program(rng, "reach")) for j in range(46))
    others = iter([f for f in fixtures if f != "countdown.json"] * 2)
    # Every fourth slot of the k ladder holds a fixture, so fixtures span it too.
    light = [next(others) if j % 4 == 1 else next(reach) for j in range(56)]
    light += list(reach)
    guarded = [b.program(f"grd{j}.json", _program(rng, "guarded", 2 + j % 4)) for j in range(16)]
    ks = ladder(rng, len(heavy), 20, 2000)  # countdown has 11 values
    rng.shuffle(ks)
    slots = list(zip(heavy, ks, ladder(rng, len(heavy), 1000, 5000)))
    for group, hi in ((light, 2000), (guarded, 200)):
        slots += zip(group, ladder(rng, len(group), 10, hi),
                     reversed(ladder(rng, len(group), 1000, 5000)))
    windows = ladder(rng, len(slots) // 3 + 1, 1, 64)
    rng.shuffle(windows)
    kinds = ("native", "min_first", "max_first", "explicit")
    for j, (name, k, cap) in enumerate(slots):
        spec = {"program": name, "k": k, "round_cap": cap}
        argv = ["run", "--program", b.path(name), "--k", k, "--round-cap", cap]
        if j % 3 == 0:
            kind, w = kinds[j // 3 % 4], windows[j // 3]
            spec.update(schedule=kind, window=w)
            argv += ["--schedule", kind, "--window", w]
            if kind == "explicit":
                spec["choices"] = [rng.randrange(min(w, k - t)) for t in range(k)]
                argv += ["--choices", _csv(spec["choices"])]
        b.add(argv, spec, ("text", "json")[j % 2])
    for j in range(2):  # cost 0 at i = 0: a documented exit 4
        name = b.program(f"zero{j}.json", {"value": "i", "cost": f"i mod {rng.randint(2, 9)}"})
        b.add(["run", "--program", b.path(name), "--k", 50],
              {"program": name, "k": 50, "round_cap": 1000})
    ref = b.program("shallow.json", {"value": "i", "cost": "1"})
    deep = {"deep_parens.json": "(" * DEEP_PARENS + "i" + ")" * DEEP_PARENS,
            "deep_sum.json": "+".join(["i"] * DEEP_TERMS)}
    for name, value in deep.items():
        b.program(name, {"value": value, "cost": "1"})
        k = rng.randint(10, 100)
        b.add(["run", "--program", b.path(name), "--k", k],
              {"program": name, "ref": ref if name == "deep_parens.json" else name,
               "k": k, "round_cap": 1000, "deep": True}, defect="deep")
    rng.shuffle(b.jobs)


def search_jobs(rng: random.Random, b: _Builder) -> None:
    """``search`` on fixture and generated pairs, small (k, w) and the grid.

    The search compares native values only by order, so its cost depends
    on the native patterns alone.  On the grid, one family pairs an
    increasing native listing with a decreasing one, which the DFS must
    exhaust; the other family pairs random programs under a node budget
    of at most 5,000.
    """
    names = _fixtures(b)
    names += [b.program(f"gen{j}.json", _program(rng, "reach")) for j in range(8)]
    rising = ["evens.json"] + [
        b.program(f"up{j}.json", {"value": f"{rng.randint(1, 9)}*i + {rng.randint(0, 50)}",
                                  "cost": "1"}) for j in range(3)]
    falling = ["countdown.json"] + [
        b.program(f"down{j}.json", {"value": f"{rng.randint(500, 900)} - {rng.randint(1, 9)}*i",
                                    "cost": "1"}) for j in range(3)]

    def add(k: int, w: int, relation: str, max_nodes: int | None, a: str, bb: str) -> None:
        spec = {"a": a, "b": bb, "k": k, "w": w, "relation": relation, "round_cap": 1000}
        argv = ["search", "--a", b.path(a), "--b", b.path(bb), "--k", k, "--window", w,
                "--relation", relation]
        if max_nodes is not None:
            argv += ["--max-nodes", max_nodes]
        b.add(argv, spec, rng.choice(("text", "json")))

    small = [(k, w) for k in range(2, 7) for w in range(1, 4)]
    for j in range(80):
        k, w = small[j % len(small)]
        add(k, w, ("eo", "uniform")[j % 2], rng.randint(5, 200) if j % 5 == 0 else None,
            rng.choice(names), rng.choice(names))
    for k, w, relation in HEAVY:
        add(k, w, relation, 1_500_000, rng.choice(rising), rng.choice(falling))
    for k, w in GRID:
        for relation in ("eo", "uniform"):
            add(k, w, relation, rng.randint(1_000, 5_000), rng.choice(names), rng.choice(names))
    ref = b.program("shallow.json", {"value": "2*i", "cost": "1"})
    deep = b.program("deep_parens.json",
                     {"value": "(" * DEEP_PARENS + "2*i" + ")" * DEEP_PARENS, "cost": "1"})
    b.add(["search", "--a", b.path(deep), "--b", b.path(names[1]), "--k", 4, "--window", 2],
          {"a": deep, "ref_a": ref, "b": names[1], "k": 4, "w": 2, "relation": "eo",
           "round_cap": 1000, "deep": True}, defect="deep")
    rng.shuffle(b.jobs)


def poset_jobs(rng: random.Random, b: _Builder) -> None:
    """``poset`` builds, chains and antichains at n <= 6, and all five suites."""
    fmts = ("text", "json", "dot")
    for n in (1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6):
        for fmt in fmts:
            b.add(["poset", "--n", n], {"mode": "poset", "n": n}, fmt)
    for n in (1, 2, 3, 4, 5, 6, 1, 2, 3, 4):
        for fmt in fmts:
            b.add(["poset", "--n", n, "--chain"], {"mode": "chain", "n": n}, fmt)
    sizes = [(6, s) for s in range(3, 11)] + [(5, s) for s in range(3, 9)] + [(2, 3), (3, 3)]
    for n, size in sizes:
        b.add(["poset", "--n", n, "--antichain", size],
              {"mode": "antichain", "n": n, "size": size}, rng.choice(fmts))
    checks = [(suite, n) for suite in SUITES * 2 for n in range(1, SUITE_CAP[suite] + 1)]
    for suite, n in checks:
        argv = ["check", "--suite", suite, "--n", n]
        spec = {"suite": suite, "n": n}
        if suite == "theorem3":
            spec["support"] = sorted(rng.sample(range(100), n))
            argv += ["--support", _csv(spec["support"])]
        b.add(argv, spec, rng.choice(("text", "json")))
    size = rng.choice((12, 14))
    b.add(["poset", "--n", 6, "--antichain", size],
          {"mode": "antichain", "n": 6, "size": size}, defect="antichain")
    rng.shuffle(b.jobs)


def _sequence(rng: random.Random, n: int) -> list[int]:
    return rng.sample(range(10 * n + 10), n)


def compare_jobs(rng: random.Random, b: _Builder) -> None:
    """``pattern`` and ``cmp`` on injective sequences of length 2-400.

    Half the ``cmp`` jobs share one reference sequence on the left, so
    their patterns repeat; the others are all distinct.
    """
    fmt = ("text", "json")
    # Lengths are ladders, so the p90 job sits among patterns of length about
    # 150 rather than next to the six long cmp jobs.
    for j, n in enumerate(ladder(rng, 80, 2, 300)):
        s = _sequence(rng, n)
        b.add(["pattern", _csv(s)], {"sequence": s}, fmt[j % 2])
    for j, n in enumerate(ladder(rng, 30, 2, 200)):
        left, right = _sequence(rng, n), _sequence(rng, n)
        b.add(["cmp", "--left", _csv(left), "--right", _csv(right)],
              {"left": left, "right": right}, fmt[j % 2])
    ref = _sequence(rng, 200)
    for j in range(45):
        right = list(ref)
        if j % 3:  # a few adjacent swaps keep the pair comparable more often
            for _ in range(rng.randint(1, 8)):
                at = rng.randrange(len(right) - 1)
                right[at], right[at + 1] = right[at + 1], right[at]
        else:
            right = _sequence(rng, len(ref))
        b.add(["cmp", "--left", _csv(ref), "--right", _csv(right)],
              {"left": ref, "right": right}, fmt[j % 2])
    dup = _sequence(rng, 20)
    dup[-1] = dup[0]
    b.add(["pattern", _csv(dup)], {"sequence": dup})
    short, long = _sequence(rng, 10), _sequence(rng, 11)
    b.add(["cmp", "--left", _csv(short), "--right", _csv(long)], {"left": short, "right": long})
    for j in range(6):
        left, right = _sequence(rng, 400), _sequence(rng, 400)
        b.add(["cmp", "--left", _csv(left), "--right", _csv(right)],
              {"left": left, "right": right}, fmt[j % 2], defect="cache")
    rng.shuffle(b.jobs)


WORKLOADS = {"enumerate": enumerate_jobs, "search": search_jobs,
             "poset": poset_jobs, "compare": compare_jobs}


def generate(workload: str, seed: int, workdir: str) -> tuple[list[dict], dict[str, str]]:
    """(jobs, program sources by file name) for one workload and seed."""
    rng = random.Random(f"{workload}:{seed}")
    builder = _Builder(workdir)
    WORKLOADS[workload](rng, builder)
    for job_id, job in enumerate(builder.jobs):
        job["id"] = job_id
    return builder.jobs, builder.sources
