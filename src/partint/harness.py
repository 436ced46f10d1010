"""Verification sweeps: run the exact engine over parameter grids.

Each sweep instance compares the star family against the certified
maximum family and records one SweepRow.  A partition row with max_size
above star_size is a counterexample to the conjecture under test and is
flagged; facts that are proven (small-n classifications, degeneracies,
the set-system ground truth, which is a set-system row's only verdict)
are rechecked on every run and raise HarnessSelfCheckError if the
engine ever disagrees with them.

Rows are reproducible bit for bit under the deterministic flag: the
witness is canonical and elapsed is recorded as 0.0 (real timings only
appear with deterministic=False).  Conclusive deterministic rows can be
cached in a line-delimited JSON file keyed by (n, k, t, relation) and
the engine version.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import time
from dataclasses import asdict, dataclass, field, fields
from itertools import combinations
from math import comb

from .cliques import (
    DEFAULT_NODE_BUDGET,
    DEFAULT_TIME_BUDGET_SECS,
    ENGINE_VERSION,
    Relation,
    SearchBudgetExceeded,
    SetFamilyInstance,
    Verdict,
    build_graph,
    check_uniqueness,
    max_family,
    max_family_set_system,
)
from .constructions import (
    LEMMA2_ASSERTIONS,
    count_monotonicity_is_strict,
    lemma1_injection,
    lemma1_strictness_witness,
    lemma2_family,
    lemma3_cover,
    proposition_witnesses,
)
from .intersect import multiset_common_count, t_intersects
from .partitions import (
    DEFAULT_MAX_VERTICES,
    count_all,
    count_partitions,
    enumerate_all,
    enumerate_partitions,
)
from .stars import star_ids


class HarnessSelfCheckError(RuntimeError):
    """The engine contradicted a proven fact; a bug, not a discovery."""


@dataclass(frozen=True)
class RunConfig:
    """Grid ranges, budgets and output options for one sweep run.

    Grid fields left as None take per-sweep defaults (see each
    verify_* function).  ``relation`` only matters for the t-sweeps;
    ``trials`` and ``seed`` only for the randomized cover-set suite.
    The CLI sets only the fields a subcommand reads; the rest keep
    their defaults, which reports record in their ``config``, all but
    ``cache_path``.  Where a report is written is not a run setting.
    """

    n_min: int | None = None
    n_max: int | None = None
    k_min: int | None = None
    k_max: int | None = None
    t_min: int | None = None
    t_max: int | None = None
    relation: Relation = Relation.MULTISET
    max_vertices: int = DEFAULT_MAX_VERTICES
    node_budget: int = DEFAULT_NODE_BUDGET
    time_budget_secs: float = DEFAULT_TIME_BUDGET_SECS
    deterministic: bool = True
    seed: int = 0
    trials: int = 1000
    fail_fast: bool = False
    cache_path: str | None = None
    fmt: str = "table"


@dataclass(frozen=True)
class SweepRow:
    """One sweep instance.  Field order is the report column contract."""

    n: int
    k: int | None          # None for mixed-length instances
    t: int
    relation: str
    star_size: int
    max_size: int
    star_is_maximum: bool | None   # None when the search was inconclusive
    unique: str                    # a Verdict value
    witness_digest: str
    elapsed: float

    @property
    def is_counterexample(self) -> bool:
        """The certified maximum beats the star: the conjecture fails here.
        Never on a set-system row, whose verdict is its Ahlswede-Khachatrian check."""
        return self.star_is_maximum is False and self.relation != "sets"

    @property
    def conclusive(self) -> bool:
        return self.star_is_maximum is not None


ROW_FIELDS = tuple(f.name for f in fields(SweepRow))


def row_dict(row: SweepRow) -> dict:
    """The row's fields in ROW_FIELDS order: every cache line and report
    writes a row from this one dict."""
    return {name: getattr(row, name) for name in ROW_FIELDS}


def witness_digest(members) -> str:
    """Stable short digest of a family (partitions or plain tuples)."""
    text = "|".join(str(m) for m in members)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


# -- caching --------------------------------------------------------------


class RowCache:
    """Line-delimited JSON cache of conclusive deterministic rows.

    Each line holds {"engine_version": ..., "row": {...}}; rows from
    other engine versions are ignored on load and reported as stale.
    """

    def __init__(self, path: str):
        self.path = path
        self._rows: dict[tuple, SweepRow] = {}
        self.stale = 0
        self.malformed = 0
        if os.path.exists(path):
            with open(path, encoding="utf-8") as handle:
                for line in handle:
                    line = line.strip()
                    if not line:
                        continue
                    try:
                        record = json.loads(line)
                        version = record["engine_version"]
                        row = SweepRow(**record["row"])
                    except (json.JSONDecodeError, KeyError, TypeError):
                        self.malformed += 1
                        continue
                    if version != ENGINE_VERSION:
                        self.stale += 1
                        continue
                    self._rows[(row.n, row.k, row.t, row.relation)] = row

    def lookup(self, n: int, k: int | None, t: int, relation: str) -> SweepRow | None:
        return self._rows.get((n, k, t, relation))

    def store(self, row: SweepRow) -> None:
        key = (row.n, row.k, row.t, row.relation)
        if key in self._rows:
            return
        self._rows[key] = row
        with open(self.path, "a", encoding="utf-8") as handle:
            record = {"engine_version": ENGINE_VERSION, "row": row_dict(row)}
            handle.write(json.dumps(record, separators=(",", ":")) + "\n")

    def stats(self) -> dict:
        return {
            "path": self.path,
            "rows": len(self._rows),
            "stale": self.stale,
            "malformed": self.malformed,
            "engine_version": ENGINE_VERSION,
        }

    def clear(self) -> None:
        self._rows.clear()
        if os.path.exists(self.path):
            os.remove(self.path)


# -- single instances ------------------------------------------------------


def solve_instance(
    n: int,
    k: int | None,
    t: int,
    relation: Relation,
    config: RunConfig,
    cache: RowCache | None = None,
    *,
    uniqueness: bool = True,
) -> SweepRow:
    """Star vs. certified maximum for one instance; k=None mixes lengths.

    With uniqueness=False the uniqueness search is skipped, the row says
    ``not_computed``, and the row cache is neither read nor written.
    """
    if not uniqueness:
        cache = None
    if cache is not None and config.deterministic:
        hit = cache.lookup(n, k, t, relation.value)
        if hit is not None:
            return hit

    start = time.perf_counter()
    if k is None:
        members = enumerate_all(n, max_vertices=config.max_vertices)
    else:
        members = enumerate_partitions(n, k, max_vertices=config.max_vertices)
    graph = build_graph(members, relation, t, max_vertices=config.max_vertices)
    star = star_ids(members, relation, t)

    try:
        outcome = max_family(
            graph,
            star=star,
            node_budget=config.node_budget,
            time_budget_secs=config.time_budget_secs,
            deterministic=config.deterministic,
        )
        star_is_maximum = outcome.star_is_maximum
        max_size = outcome.max_size
        digest = witness_digest(members[v] for v in outcome.witness)
        if not uniqueness:
            unique = Verdict.NOT_COMPUTED
        elif star_is_maximum:
            try:
                is_unique = check_uniqueness(
                    graph,
                    star,
                    max_size,
                    node_budget=config.node_budget,
                    time_budget_secs=config.time_budget_secs,
                )
                unique = Verdict.YES if is_unique else Verdict.NO
            except SearchBudgetExceeded:
                unique = Verdict.INCONCLUSIVE
        else:
            unique = Verdict.NO
    except SearchBudgetExceeded as partial:
        star_is_maximum = None
        max_size = partial.lower_bound
        digest = witness_digest(members[v] for v in partial.witness)
        unique = Verdict.INCONCLUSIVE if uniqueness else Verdict.NOT_COMPUTED

    elapsed = 0.0 if config.deterministic else round(time.perf_counter() - start, 3)
    row = SweepRow(
        n=n,
        k=k,
        t=t,
        relation=relation.value,
        star_size=len(star),
        max_size=max_size,
        star_is_maximum=star_is_maximum,
        unique=unique.value,
        witness_digest=digest,
        elapsed=elapsed,
    )
    if cache is not None and config.deterministic and row.conclusive:
        cache.store(row)
    return row


# -- sweeps ----------------------------------------------------------------


def _given(bound: int | None, default: int) -> int:
    """A grid bound as set, or its default when unset; an explicit 0 is kept."""
    return default if bound is None else bound


def _sweep(config: RunConfig, keys, self_check) -> list[SweepRow]:
    """Solve each (n, k, t, relation) key in order, self-checking every
    row before it is kept; fail_fast stops after the first counterexample."""
    cache = RowCache(config.cache_path) if config.cache_path else None
    rows: list[SweepRow] = []
    for n, k, t, relation in keys:
        row = solve_instance(n, k, t, relation, config, cache)
        self_check(row)
        rows.append(row)
        if row.is_counterexample and config.fail_fast:
            break
    return rows


def verify_strong_form(config: RunConfig = RunConfig()) -> list[SweepRow]:
    """Star vs. maximum for intersecting subsets of P(n, k), full grid.

    Defaults: 2 <= k <= n <= 22, t = 1, multiset relation.  Self-checks
    the proven n <= 2k classification and the star size identity.
    """
    keys = (
        (n, k, 1, Relation.MULTISET)
        for n in range(_given(config.n_min, 2), _given(config.n_max, 22) + 1)
        for k in range(max(2, _given(config.k_min, 2)), min(n, _given(config.k_max, n)) + 1)
    )
    return _sweep(config, keys, _strong_self_check)


def _strong_self_check(row: SweepRow) -> None:
    k = row.k
    assert k is not None
    if row.star_size != count_partitions(row.n - 1, k - 1):
        raise HarnessSelfCheckError(
            f"star size {row.star_size} at (n={row.n}, k={k}) is not "
            f"p({row.n - 1}, {k - 1}) = {count_partitions(row.n - 1, k - 1)}"
        )
    if not row.conclusive or row.n > 2 * k:
        return
    # Proven for n <= 2k: the star is maximum, uniquely so unless
    # k in {2, 3} and n = 2k.
    expected_unique = not (k <= 3 and row.n == 2 * k)
    if not row.star_is_maximum:
        raise HarnessSelfCheckError(
            f"(n={row.n}, k={k}): star not maximum inside the proven range"
        )
    if row.unique != (Verdict.YES if expected_unique else Verdict.NO).value:
        raise HarnessSelfCheckError(
            f"(n={row.n}, k={k}): uniqueness {row.unique!r} contradicts the "
            f"proven classification ({'unique' if expected_unique else 'not unique'})"
        )


def verify_weak_form(config: RunConfig = RunConfig()) -> list[SweepRow]:
    """Star vs. maximum for intersecting subsets of P(n), mixed lengths.

    Defaults: 2 <= n <= 14, t = 1, multiset relation.
    """
    keys = (
        (n, None, 1, Relation.MULTISET)
        for n in range(max(1, _given(config.n_min, 2)), _given(config.n_max, 14) + 1)
    )
    return _sweep(config, keys, _weak_self_check)


def _weak_self_check(row: SweepRow) -> None:
    if row.star_size != count_all(row.n - 1):
        raise HarnessSelfCheckError(
            f"all-lengths star size {row.star_size} at n={row.n} is not "
            f"p({row.n - 1}) = {count_all(row.n - 1)}"
        )


def weak_strong_consistent(
    strong_rows: list[SweepRow], weak_rows: list[SweepRow]
) -> bool:
    """Whether each mixed-length maximum equals the sum of fixed-length stars.

    If the fixed-length conjecture holds, the maximum over P(n) must be
    sum_k p(n-1, k-1) = p(n-1): restricting a family to one length and
    prepending a one to each member of the conjectured extremal family
    match the two tables up exactly.
    """
    star_by_n: dict[int, int] = {}
    for row in strong_rows:
        star_by_n[row.n] = star_by_n.get(row.n, 0) + row.star_size
    for row in weak_rows:
        if row.n in star_by_n and row.conclusive:
            if row.max_size != star_by_n[row.n]:
                return False
    return True


def verify_t_conjectures(config: RunConfig = RunConfig()) -> list[SweepRow]:
    """Star vs. maximum at level t under either relation, full grid.

    Defaults: t in {2, 3}, t+1 <= k <= 8, k <= n <= 22, relation from
    the config.  Self-checks the proven degeneracies: length t+1 forces
    singleton families, and under the proper relation small n forces
    empty ones.
    """
    relation = Relation(config.relation)
    keys = (
        (n, k, t, relation)
        for t in range(max(1, _given(config.t_min, 2)), _given(config.t_max, 3) + 1)
        for k in range(max(t + 1, _given(config.k_min, t + 1)), _given(config.k_max, 8) + 1)
        for n in range(max(k, _given(config.n_min, k)), _given(config.n_max, 22) + 1)
    )
    return _sweep(config, keys, _t_sweep_self_check)


def _t_sweep_self_check(row: SweepRow) -> None:
    n, k, t = row.n, row.k, row.t
    assert k is not None
    relation = Relation(row.relation)
    reduced_n = n - t if relation is Relation.MULTISET else n - t * (t + 1) // 2
    expected_star = count_partitions(reduced_n, k - t) if reduced_n >= 0 else 0
    if row.star_size != expected_star:
        raise HarnessSelfCheckError(
            f"star size {row.star_size} at (n={n}, k={k}, t={t}, "
            f"{relation.value}) should be {expected_star}"
        )
    if not row.conclusive:
        return
    if k == t + 1 and row.max_size > 1:
        raise HarnessSelfCheckError(
            f"(n={n}, k={k}, t={t}): families of length-(t+1) partitions "
            f"are singletons, yet max_size = {row.max_size}"
        )
    if relation is Relation.PROPER and n < t * (t - 1) // 2 + k and row.max_size != 0:
        raise HarnessSelfCheckError(
            f"(n={n}, k={k}, t={t}): no member can have {t} distinct parts, "
            f"yet max_size = {row.max_size}"
        )


def cross_validate_ekr(config: RunConfig = RunConfig()) -> list[SweepRow]:
    """Exact maxima for t-intersecting families of r-subsets of [n].

    Ground truth for the engine: the maximum is the Ahlswede-Khachatrian
    value (``SetFamilyInstance.ak_maximum``), which is C(n-t, r-t), the
    t-star, exactly when n >= (r-t+1)(t+1).  Any disagreement raises
    HarnessSelfCheckError.  A search that runs out of budget gives an
    inconclusive row (star_is_maximum None, its lower bound and partial
    witness), which is not checked against that value.
    Defaults: t in {1, 2}, t <= r <= 4, r <= n <= 12.
    """
    keys = (
        (n, r, t)
        for t in range(max(1, _given(config.t_min, 1)), _given(config.t_max, 2) + 1)
        for r in range(max(t, _given(config.k_min, t)), _given(config.k_max, 4) + 1)
        for n in range(max(r, _given(config.n_min, r)), _given(config.n_max, 12) + 1)
    )
    return [_ekr_row(n, r, t, config) for n, r, t in keys if comb(n, r) <= config.max_vertices]


def _ekr_row(n: int, r: int, t: int, config: RunConfig) -> SweepRow:
    instance = SetFamilyInstance(n, r, t)
    start = time.perf_counter()
    try:
        outcome = max_family_set_system(
            instance,
            max_vertices=config.max_vertices,
            node_budget=config.node_budget,
            time_budget_secs=config.time_budget_secs,
            deterministic=config.deterministic,
        )
        star_size, max_size, witness = outcome.star_size, outcome.max_size, outcome.witness
        star_is_maximum = outcome.star_is_maximum
    except SearchBudgetExceeded as partial:
        star_size, max_size, witness = instance.star_size, partial.lower_bound, partial.witness
        star_is_maximum = None
    if star_size != instance.star_size:
        raise HarnessSelfCheckError(
            f"set-system star at (n={n}, r={r}, t={t}) has size "
            f"{star_size}, expected C({n - t}, {r - t})"
        )
    if star_is_maximum is not None and max_size != instance.ak_maximum:
        raise HarnessSelfCheckError(
            f"(n={n}, r={r}, t={t}): max {max_size} != "
            f"Ahlswede-Khachatrian maximum {instance.ak_maximum}"
        )
    members = list(combinations(range(1, n + 1), r))
    return SweepRow(
        n=n,
        k=r,
        t=t,
        relation="sets",
        star_size=star_size,
        max_size=max_size,
        star_is_maximum=star_is_maximum,
        unique=Verdict.NOT_COMPUTED.value,
        witness_digest=witness_digest(".".join(map(str, members[v])) for v in witness),
        elapsed=0.0 if config.deterministic else round(time.perf_counter() - start, 3),
    )


# -- lemma suites -----------------------------------------------------------


GENERATOR_NOTE = (
    "cover-set instances: t uniform in [1,3], member bound r uniform in "
    "[t+2,8], 3..12 members over a ground set of size [2r,30]; members share "
    "a t-element core plus noise from a shared pool of 3..6 elements, one "
    "member has a core element swapped out; rejection-sampled to "
    "t-intersecting families with common intersection below t"
)


@dataclass
class SuiteResult:
    name: str
    instances: int = 0
    passed: int = 0
    failures: list[str] = field(default_factory=list)

    def record(self, ok: bool, label: str) -> None:
        self.instances += 1
        if ok:
            self.passed += 1
        else:
            self.failures.append(label)

    @property
    def failed(self) -> int:
        return self.instances - self.passed


@dataclass
class LemmaSuiteReport:
    seed: int
    trials: int
    generator: str
    suites: list[SuiteResult]

    @property
    def all_passed(self) -> bool:
        return all(s.failed == 0 for s in self.suites)


def random_cover_instance(rng: random.Random):
    """One candidate family for the cover-set suite, or None if rejected."""
    t = rng.randint(1, 3)
    r = rng.randint(t + 2, 8)
    m = rng.randint(3, 12)
    ground = rng.randint(2 * r, 30)
    core = rng.sample(range(1, ground + 1), t)
    rest = [x for x in range(1, ground + 1) if x not in core]
    pool = rng.sample(rest, min(len(rest), rng.randint(3, 6)))
    members = []
    for _ in range(m):
        extra = rng.randint(1, r - t)
        members.append(set(core) | set(rng.sample(pool, min(extra, len(pool)))))
    victim = rng.randrange(m)
    dropped = rng.choice(core)
    members[victim].discard(dropped)
    swaps = [x for x in pool if x not in members[victim]]
    if swaps:
        members[victim].add(rng.choice(swaps))

    family: list[frozenset[int]] = []
    seen = set()
    for member in members:
        fs = frozenset(member)
        if fs not in seen:
            seen.add(fs)
            family.append(fs)
    if any(len(a & b) < t for a, b in combinations(family, 2)):
        return None
    common = set(family[0])
    for member in family[1:]:
        common &= member
    if len(common) >= t:
        return None
    return family, t, r


def _suite_padding(report: list[SuiteResult]) -> None:
    injective = SuiteResult("padding_injection")
    strict = SuiteResult("padding_strictness")
    for k in range(3, 7):
        target = {}
        for m in range(k, 21):
            for n in range(m, 21):
                label = f"(m={m}, n={n}, k={k})"
                mapping = lemma1_injection(m, n, k)
                if n not in target:
                    target[n] = set(enumerate_partitions(n, k))
                injective.record(
                    len(mapping) == count_partitions(m, k)
                    and len(set(mapping.values())) == len(mapping)
                    and all(b in target[n] for b in mapping.values()),
                    label,
                )
                if not count_monotonicity_is_strict(m, n, k):
                    continue
                witness = lemma1_strictness_witness(n, k)
                strict.record(
                    witness in target[n]
                    and witness not in set(mapping.values())
                    and count_partitions(m, k) < count_partitions(n, k),
                    label,
                )
    report.extend([injective, strict])


def _suite_fibre(report: list[SuiteResult]) -> None:
    suites = {name: SuiteResult(f"fibre_{name}") for name in LEMMA2_ASSERTIONS}
    for k in (3, 4):
        for c in (1, 2):
            for offset in (0, 1, 7):
                n = c * k**3 + offset
                fibre = lemma2_family(n, k, c)
                for name in LEMMA2_ASSERTIONS:
                    suites[name].record(getattr(fibre, name), f"(n={n}, k={k}, c={c})")
    report.extend(suites.values())


def _suite_cover(report: list[SuiteResult], seed: int, trials: int) -> None:
    suite = SuiteResult("cover_sets")
    rng = random.Random(seed)
    attempts = 0
    while suite.instances < trials:
        attempts += 1
        if attempts > 200 * trials:
            raise RuntimeError("cover-set generator rejection rate is pathological")
        candidate = random_cover_instance(rng)
        if candidate is None:
            continue
        family, t, r = candidate
        cover = lemma3_cover(family, t, r)
        # Independent brute-force recheck of the two guarantees.
        suite.record(
            len(cover.cover) <= 3 * r - 2 * t - 1
            and all(len(a & cover.cover) >= t + 1 for a in family),
            f"seed attempt {attempts}: t={t}, r={r}",
        )
    report.append(suite)


def _suite_boundary(report: list[SuiteResult]) -> None:
    suite = SuiteResult("boundary_witnesses")
    cases = [(2 * k, k, 1) for k in range(2, 9)]
    cases += [(2 * k - t + 1, k, t) for t in range(2, 5) for k in range(t + 1, 9)]
    for n, k, t in cases:
        witnesses = proposition_witnesses(n, k, t)
        ok = all(p.n == n and p.k == k for p in witnesses.values())
        if t == 1:
            ok = ok and not t_intersects(witnesses["a1"], witnesses["a2"], 1)
            if "a3" in witnesses:
                ok = ok and not t_intersects(witnesses["a1"], witnesses["a3"], 1)
        else:
            shared = multiset_common_count(witnesses["a"].parts, witnesses["b"].parts)
            ok = ok and shared == t - 1 and not t_intersects(
                witnesses["a"], witnesses["b"], t
            )
        suite.record(ok, f"(n={n}, k={k}, t={t})")
    report.append(suite)


def run_lemma_suites(config: RunConfig = RunConfig()) -> LemmaSuiteReport:
    """All construction suites: padding, fibre counting, covers, witnesses."""
    suites: list[SuiteResult] = []
    _suite_padding(suites)
    _suite_fibre(suites)
    _suite_cover(suites, config.seed, config.trials)
    _suite_boundary(suites)
    return LemmaSuiteReport(
        seed=config.seed,
        trials=config.trials,
        generator=GENERATOR_NOTE,
        suites=suites,
    )


# -- summaries and reports ---------------------------------------------------


def summarize_rows(rows: list[SweepRow]) -> dict:
    """verified = settled and not refuted; refuted = a counterexample;
    inconclusive = out of budget.  A settled set-system row is verified:
    cross_validate_ekr raises on a maximum off the Ahlswede-Khachatrian value."""
    refuted = sum(1 for r in rows if r.is_counterexample)
    conclusive = sum(1 for r in rows if r.conclusive)
    return {
        "instances": len(rows),
        "verified": conclusive - refuted,
        "refuted": refuted,
        "inconclusive": len(rows) - conclusive,
    }


def _config_dict(config: RunConfig) -> dict:
    """The run settings a report records; the cache location is left out,
    so identical runs give identical bytes wherever they cache."""
    data = asdict(config)
    del data["cache_path"]
    data["relation"] = Relation(config.relation).value
    data["engine_version"] = ENGINE_VERSION
    return data


def rows_to_json(config: RunConfig, rows: list[SweepRow], summary: dict) -> str:
    payload = {
        "config": _config_dict(config),
        "rows": [row_dict(row) for row in rows],
        "summary": summary,
    }
    return json.dumps(payload, indent=2) + "\n"


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def rows_to_csv(rows: list[SweepRow]) -> str:
    lines = [",".join(ROW_FIELDS)]
    for row in rows:
        lines.append(",".join(_cell(value) for value in row_dict(row).values()))
    return "\n".join(lines) + "\n"


def rows_to_table(rows: list[SweepRow], summary: dict | None = None) -> str:
    cells = [[name for name in ROW_FIELDS]]
    for row in rows:
        rendered = [_cell(value) for value in row_dict(row).values()]
        if row.is_counterexample:
            rendered[-1] += "  COUNTEREXAMPLE"
        cells.append(rendered)
    widths = [max(len(line[i]) for line in cells) for i in range(len(ROW_FIELDS))]
    out = []
    for line_no, line in enumerate(cells):
        out.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(line)).rstrip())
        if line_no == 0:
            out.append("  ".join("-" * widths[i] for i in range(len(widths))))
    if summary is not None:
        out.append("")
        out.append(
            f"instances={summary['instances']} verified={summary['verified']} "
            f"refuted={summary['refuted']} inconclusive={summary['inconclusive']}"
        )
    return "\n".join(out) + "\n"


def render_rows(config: RunConfig, rows: list[SweepRow], summary: dict) -> str:
    if config.fmt == "json":
        return rows_to_json(config, rows, summary)
    if config.fmt == "csv":
        return rows_to_csv(rows)
    if config.fmt == "table":
        return rows_to_table(rows, summary)
    raise ValueError(f"unknown format {config.fmt!r}")


def suite_report_to_json(config: RunConfig, report: LemmaSuiteReport) -> str:
    payload = {
        "config": _config_dict(config),
        "generator": report.generator,
        "suites": [
            {
                "name": s.name,
                "instances": s.instances,
                "passed": s.passed,
                "failed": s.failed,
                "failures": s.failures[:20],
            }
            for s in report.suites
        ],
        "summary": {
            "suites": len(report.suites),
            "all_passed": report.all_passed,
        },
    }
    return json.dumps(payload, indent=2) + "\n"


def suite_report_to_table(report: LemmaSuiteReport) -> str:
    out = [f"seed={report.seed} trials={report.trials}"]
    out.append(f"generator: {report.generator}")
    out.append("")
    width = max(len(s.name) for s in report.suites)
    for s in report.suites:
        status = "pass" if s.failed == 0 else "FAIL"
        out.append(f"{s.name.ljust(width)}  {s.passed}/{s.instances}  {status}")
        for failure in s.failures[:5]:
            out.append(f"{' ' * width}  failed: {failure}")
    out.append("")
    out.append("all passed" if report.all_passed else "FAILURES PRESENT")
    return "\n".join(out) + "\n"
