"""Outside-in layer tracing: wrappers around the library's public functions.

`install()` replaces every public function of the layer modules, and every
alias other modules bound to it with from-imports, by a wrapper that
records a span (name, metric group, parent, start, end).  Spans stay in
memory and are written out at the end of the process.  A generator, or a
call that returns one, is timed over its whole iteration: each resume is a
span segment, so work its consumer does between items is not charged to it.

`layer_metrics()` turns spans into the per-layer metrics; a span's self
time is its duration minus the durations of its direct children.
"""

from __future__ import annotations

import base64
import functools
import math
import statistics
import sys
import time
import types
from array import array
from collections import defaultdict

LAYER_MODULES = ("arith", "counting", "constants", "lattice", "rng", "groups", "cli", "verifysuite")

# Public function -> metric group.  Unlisted public functions are grouped by
# module; their time is traced but belongs to no per-layer metric.
GROUPS = {
    "arith.factorize": "arith.factorize",
    "counting.count_cocyclic": "counting.sum",
    "counting.count_squarefree": "counting.sum",
    "counting.total_count": "counting.sum",
    "counting.census_cocyclic_bruteforce": "counting.oracle",
    "counting.census_squarefree_bruteforce": "counting.oracle",
    "counting.census_total_bruteforce": "counting.oracle",
    "counting.count_by_rank_bruteforce": "counting.oracle",
    "counting.counts_by_rank_bruteforce": "counting.oracle",
    "counting.count_primitive_classes_bruteforce": "counting.oracle",
    "constants.euler_product": "constants.euler",
    "constants.zeta": "constants.zeta",
    "lattice.smith_invariants": "lattice.smith",
    "lattice.is_cocyclic": "lattice.smith",
    "lattice.quotient_rank": "lattice.smith",
    "lattice.hnf_canonicalize": "lattice.hnf",
    "lattice.lattice_from_congruence": "lattice.hnf",
    "lattice.sample_cocyclic": "lattice.sample",
    "lattice.sample_cocyclic_stream": "lattice.sample",
    "groups.enumerate_groups": "groups.enum",
    "groups.aut_order": "groups.aut",
    "groups.aut_order_pgroup": "groups.aut",
    "groups.aut_order_qm": "groups.aut",
    "groups.generating_tuples_count": "groups.dp",
    "groups.primitive_class_count": "groups.dp",
    "groups.aut_order_bruteforce": "groups.dp",
    "groups.cl_total_mass": "groups.mass",
    "groups.cl_predicate_mass": "groups.mass",
    "groups.cl_mass_report": "groups.mass",
}
# Methods wrapped with spans, and hot methods only counted.
METHOD_SPANS = {
    ("arith", "SieveTable", "__init__"): "arith.sieve",
    ("arith", "SieveTable", "primes"): "arith.sieve",
    ("arith", "SieveTable", "factor_pairs"): "arith.factorize",
}
METHOD_COUNTERS = {("rng", "SplitMix64", "randbelow"), ("rng", "SplitMix64", "next_u64")}
# Only the outermost entry of these passes counts as one enumeration pass.
PASS_FUNCTIONS = {
    "counting.census_cocyclic_bruteforce", "counting.census_squarefree_bruteforce",
    "counting.census_total_bruteforce", "counting.count_by_rank_bruteforce",
    "counting.counts_by_rank_bruteforce",
}


class Tracer:
    """In-memory span recorder, one column per field.  Span i has a name, a
    parent span (-1 at top level), start and end times, an `entry` flag and
    optional info.  `entry` is False when the parent span is in the same
    group (nested calls of one layer count as one call) and for the later
    segments of a generator."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self.groups: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id, self.parent = array("i"), array("q")
        self.start, self.end, self.entry = array("d"), array("d"), bytearray()
        self.info: dict[int, dict] = {}
        self.stack: list[int] = []
        self.counters: dict[str, int] = defaultdict(int)
        self._restore: list[tuple[object, str, object]] = []
        self.window = [0.0, 0.0]

    def _name(self, name: str, group: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self.groups.append(group)
        return self._ids[name]

    def open(self, name: str, group: str, first: bool = True) -> int:
        parent = self.stack[-1] if self.stack else -1
        entry = first and (parent < 0 or self.groups[self.name_id[parent]] != group)
        idx = len(self.parent)
        self.name_id.append(self._name(name, group))
        self.parent.append(parent)
        self.entry.append(entry)
        self.end.append(0.0)
        self.stack.append(idx)
        self.start.append(self.clock())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = self.clock()
        # Pop down to idx: a deadline exception may unwind several spans.
        while self.stack and self.stack.pop() != idx:
            pass

    # -- wrappers ------------------------------------------------------------

    def wrap(self, fn, name: str, group: str):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = tracer.open(name, group)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            if isinstance(result, types.GeneratorType):
                tracer.info[idx] = {"items": 0}
                return tracer._iterate(result, name, group, idx)
            info = _info(name, args, kwargs, result)
            if info is not None:
                tracer.info[idx] = info
            return result

        return traced

    def _iterate(self, gen, name, group, first_idx):
        items = 0
        first = self.info[first_idx]
        while True:
            idx = self.open(name, group, first=False)
            try:
                item = next(gen)
            except StopIteration:
                self.close(idx)
                return
            except BaseException:
                self.close(idx)
                raise
            self.close(idx)
            items += 1
            first["items"] = items
            yield item

    def counter(self, fn, key: str):
        counters = self.counters

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counters[key] += 1
            return fn(*args, **kwargs)

        return counted

    # -- install / uninstall ---------------------------------------------------

    def install(self) -> None:
        """Wrap the layer modules of the imported latcensus package."""
        import latcensus.cli  # noqa: F401  (imports every layer module)

        pkg_modules = [m for k, m in sys.modules.items() if k == "latcensus" or k.startswith("latcensus.")]
        originals = {}
        for short in LAYER_MODULES:
            mod = sys.modules[f"latcensus.{short}"]
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or isinstance(obj, type) or not callable(obj):
                    continue
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                name = f"{short}.{attr}"
                originals[id(obj)] = (obj, self.wrap(obj, name, GROUPS.get(name, short)))
        for mod in pkg_modules:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in originals:  # originals holds obj, so ids are not reused
                    self._set(mod, attr, originals[id(obj)][1])
        for (short, cls_name, meth), group in METHOD_SPANS.items():
            cls = getattr(sys.modules[f"latcensus.{short}"], cls_name)
            self._set(cls, meth, self.wrap(vars(cls)[meth], f"{short}.{cls_name}.{meth}", group))
        for short, cls_name, meth in METHOD_COUNTERS:
            cls = getattr(sys.modules[f"latcensus.{short}"], cls_name)
            self._set(cls, meth, self.counter(vars(cls)[meth], f"{short}.{meth}"))
        self.window[0] = self.clock()

    def _set(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        self.window[1] = self.clock()
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()

    def dump(self) -> dict:
        """Spans, counters and lru-cache statistics, ready for JSON."""
        constants = sys.modules.get("latcensus.constants")
        hits = misses = 0
        for obj in vars(constants).values() if constants else ():
            info = getattr(obj, "cache_info", None)
            if info is not None and getattr(obj, "__module__", None) == constants.__name__:
                ci = info()
                hits, misses = hits + ci.hits, misses + ci.misses
        cols = {k: base64.b64encode(bytes(getattr(self, k))).decode()
                for k in ("name_id", "parent", "start", "end", "entry")}
        return {
            "names": self.names,
            "groups": self.groups,
            "columns": cols,
            "info": {str(k): v for k, v in self.info.items()},
            "counters": dict(self.counters),
            "lru": [hits, misses],
            "window": self.window,
        }


def decode(dump: dict) -> list[tuple]:
    """Spans of a dump as (name, group, parent, start, end, entry, info)."""
    cols = {}
    for key, code in (("name_id", "i"), ("parent", "q"), ("start", "d"), ("end", "d")):
        cols[key] = array(code, base64.b64decode(dump["columns"][key]))
    entry = base64.b64decode(dump["columns"]["entry"])
    names, groups, info = dump["names"], dump["groups"], dump["info"]
    return [
        (names[n], groups[n], p, t0, t1, bool(e), info.get(str(i)))
        for i, (n, p, t0, t1, e) in enumerate(
            zip(cols["name_id"], cols["parent"], cols["start"], cols["end"], entry))
    ]


def _arg(args, kwargs, pos: int, key: str):
    return args[pos] if len(args) > pos else kwargs.get(key)


def _info(name: str, args, kwargs, result):
    """The per-call facts the layer metrics need, recorded at the boundary."""
    if name in ("counting.count_cocyclic", "counting.count_squarefree", "counting.total_count"):
        return {"V": _arg(args, kwargs, 1, "V")}
    if name in PASS_FUNCTIONS:
        pos = 2 if name == "counting.count_by_rank_bruteforce" else 1
        return {"n": _arg(args, kwargs, 0, "n"), "V": _arg(args, kwargs, pos, "V")}
    if name == "constants.euler_product":
        return {"cutoff": result[1]}
    if name == "constants.evaluate_constant":
        value = result[0]
        return {"tol": kwargs.get("tol"), "err": float(value.err)}
    if name == "lattice.sample_cocyclic":
        return {"n": _arg(args, kwargs, 0, "n")}
    if name == "arith.SieveTable.__init__":
        return {"limit": _arg(args, kwargs, 1, "limit")}
    return None


# ---------------------------------------------------------------------------
# aggregation
# ---------------------------------------------------------------------------

# name -> (unit, better); the order is the order of BENCHMARK.json.
LAYER_METRICS = {
    "arith.sieve_s": ("s", "lower"),
    "arith.sieve_builds": ("count", "lower"),
    "arith.sieve_peak_entries": ("entries", "lower"),
    "arith.factorize_calls": ("count", "lower"),
    "arith.factorize_s": ("s", "lower"),
    "counting.sum_s": ("s", "lower"),
    "counting.sum_calls": ("count", "lower"),
    "counting.sum_q_per_s": ("1/s", "higher"),
    "counting.oracle_s": ("s", "lower"),
    "counting.oracle_passes": ("count", "lower"),
    "counting.oracle_pass_reuse": ("ratio", "higher"),
    "constants.euler_s": ("s", "lower"),
    "constants.euler_calls": ("count", "lower"),
    "constants.euler_primes": ("count", "lower"),
    "constants.zeta_s": ("s", "lower"),
    "constants.zeta_calls": ("count", "lower"),
    "constants.cache_hit_ratio": ("ratio", "higher"),
    "constants.tol_slack": ("ratio", "lower"),
    "lattice.smith_s": ("s", "lower"),
    "lattice.smith_calls": ("count", "lower"),
    "lattice.hnf_s": ("s", "lower"),
    "lattice.hnf_calls": ("count", "lower"),
    "lattice.sample_s": ("s", "lower"),
    "lattice.sample_draws": ("count", "lower"),
    "rng.draws_per_sample": ("ratio", "lower"),
    "rng.u64_per_randbelow": ("ratio", "lower"),
    "groups.enum_s": ("s", "lower"),
    "groups.enum_groups": ("count", "lower"),
    "groups.aut_s": ("s", "lower"),
    "groups.dp_s": ("s", "lower"),
    "groups.dp_calls": ("count", "lower"),
    "groups.mass_s": ("s", "lower"),
    "cli.self_s": ("s", "lower"),
    "cli.interp_s": ("s", "lower"),
    "trace.overhead": ("ratio", "lower"),
    "trace.unwrapped_share": ("ratio", "lower"),
}


def self_times(spans: list[tuple]) -> list[float]:
    """Self time of each span: its duration minus its direct children's."""
    own = [s[4] - s[3] for s in spans]
    for s in spans:
        if s[2] >= 0:
            own[s[2]] -= s[4] - s[3]
    return own


@functools.lru_cache(maxsize=None)
def prime_count(limit: int) -> int:
    """pi(limit), by a plain sieve of Eratosthenes."""
    flags = bytearray([1]) * (limit + 1)
    flags[0:2] = b"\x00\x00"
    for i in range(2, math.isqrt(limit) + 1):
        if flags[i]:
            flags[i * i :: i] = bytes(len(range(i * i, limit + 1, i)))
    return sum(flags)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(dumps: list[dict], interp_s: list[float]) -> dict[str, float]:
    """Per-layer metrics of one traced round, from the dumps of the round's
    processes.  A metric whose layer did no work reads 0."""
    self_s: dict[str, float] = defaultdict(float)
    entries: dict[str, int] = defaultdict(int)
    calls: dict[str, int] = defaultdict(int)
    sum_q = 0
    passes: list[tuple] = []
    primes = 0
    slack: list[float] = []
    sample_n = 0
    sieve_peak = 0
    counters: dict[str, int] = defaultdict(int)
    hits = lookups = 0
    window = unwrapped = 0.0
    for dump in dumps:
        spans = decode(dump)
        own = self_times(spans)
        for s, t in zip(spans, own):
            name, group, parent, entry, info = s[0], s[1], s[2], s[5], s[6]
            self_s[group] += t
            if entry:
                entries[group] += 1
                calls[name] += 1
            if info is None:
                continue
            if group == "counting.sum" and entry:
                sum_q += info["V"]
            elif name in PASS_FUNCTIONS and entry:
                passes.append((info["n"], info["V"]))
            elif name == "constants.euler_product":
                primes += prime_count(info["cutoff"])
            elif name == "constants.evaluate_constant" and info["err"] > 0:
                slack.append(info["tol"] / info["err"])
            elif name == "lattice.sample_cocyclic":
                sample_n += info["n"]
                calls["lattice.sample_cocyclic.all"] += 1
            elif name == "arith.SieveTable.__init__":
                sieve_peak = max(sieve_peak, info["limit"])
            elif group == "groups.enum" and "items" in info:
                calls["groups.enum.items"] += info["items"]
        for k, v in dump["counters"].items():
            counters[k] += v
        hits, lookups = hits + dump["lru"][0], lookups + sum(dump["lru"])
        w = dump["window"][1] - dump["window"][0]
        window += w
        unwrapped += w - sum(s[4] - s[3] for s in spans if s[2] < 0)
    sum_s, oracle_s = self_s["counting.sum"], self_s["counting.oracle"]
    randbelow = counters["rng.randbelow"]
    return {
        "arith.sieve_s": self_s["arith.sieve"],
        "arith.sieve_builds": calls["arith.SieveTable.__init__"],
        "arith.sieve_peak_entries": sieve_peak,
        "arith.factorize_calls": entries["arith.factorize"],
        "arith.factorize_s": self_s["arith.factorize"],
        "counting.sum_s": sum_s,
        "counting.sum_calls": entries["counting.sum"],
        "counting.sum_q_per_s": _ratio(sum_q, sum_s),
        "counting.oracle_s": oracle_s,
        "counting.oracle_passes": len(passes),
        "counting.oracle_pass_reuse": _ratio(len(set(passes)), len(passes)),
        "constants.euler_s": self_s["constants.euler"],
        "constants.euler_calls": entries["constants.euler"],
        "constants.euler_primes": primes,
        "constants.zeta_s": self_s["constants.zeta"],
        "constants.zeta_calls": calls["constants.zeta"],
        "constants.cache_hit_ratio": _ratio(hits, lookups),
        "constants.tol_slack": statistics.median(slack) if slack else 0.0,
        "lattice.smith_s": self_s["lattice.smith"],
        "lattice.smith_calls": entries["lattice.smith"],
        "lattice.hnf_s": self_s["lattice.hnf"],
        "lattice.hnf_calls": entries["lattice.hnf"],
        "lattice.sample_s": self_s["lattice.sample"],
        "lattice.sample_draws": calls["lattice.sample_cocyclic.all"],
        "rng.draws_per_sample": _ratio(randbelow, sample_n),
        "rng.u64_per_randbelow": _ratio(counters["rng.next_u64"], randbelow),
        "groups.enum_s": self_s["groups.enum"],
        "groups.enum_groups": calls["groups.enum.items"],
        "groups.aut_s": self_s["groups.aut"],
        "groups.dp_s": self_s["groups.dp"],
        "groups.dp_calls": entries["groups.dp"],
        "groups.mass_s": self_s["groups.mass"],
        "cli.self_s": self_s["cli"],
        "cli.interp_s": statistics.median(interp_s) if interp_s else 0.0,
        "trace.unwrapped_share": _ratio(unwrapped, window),
    }
