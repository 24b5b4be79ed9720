"""Span tracing for the benchmark's traced runs, and the per-layer metrics.

The tracer replaces functions at the module attribute their callers look
up, so ncaudit itself is unchanged.  Each call records one span (id, parent
id, name, start, end, counts); spans stay in memory and are written as JSON
lines when the run ends.  A layer's self time is its span's duration minus
the time covered by its child spans.
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
import time
from collections import defaultdict

KERNELS = ("field.vec_scale", "field.dot", "field.scale_rows", "field.combine_rows")
ELIMINATION = ("field.gaussian_solve", "field.solve_any", "field.matrix_rank")


def _eval_range_symbols(args, kwargs, result):
    return {"symbols": int(len(result))}


def _shipped_bytes(args, kwargs, result):
    return {"shipped": int(sum(b.vec.size for b in result.blocks)
                           + sum(t.size for t in result.tags))}


def _extraction(args, kwargs, result):
    return {"queries": int(result.queries), "discarded": int(result.discarded)}


# (module, attribute, span name, counts taken from the call); attribute may
# be "Class.method".  A call passes through one of these only once, so two
# entries may share a span name when two modules import the same function.
TARGETS = [
    ("ncaudit.prf", "eval_range", "prf.eval_range", _eval_range_symbols),
    ("ncaudit.prf", "derive_r_vector", "prf.derive_r_vector", None),
    ("ncaudit.field", "vec_scale", "field.vec_scale", None),
    ("ncaudit.field", "dot", "field.dot", None),
    ("ncaudit.field", "scale_rows", "field.scale_rows", None),
    ("ncaudit.field", "combine_rows", "field.combine_rows", None),
    ("ncaudit.field", "gaussian_solve", "field.gaussian_solve", None),
    ("ncaudit.field", "solve_any", "field.solve_any", None),
    ("ncaudit.field", "matrix_rank", "field.matrix_rank", None),
    ("ncaudit.spacemac", "mac", "spacemac.mac", None),
    ("ncaudit.spacemac", "r_vector", "spacemac.r_vector", None),
    ("ncaudit.ncrypt", "setup", "ncrypt.setup", None),
    ("ncaudit.ncrypt", "mask_for_nonce", "ncrypt.mask_for_nonce", None),
    ("ncaudit.ncrypt", "enc", "ncrypt.enc", None),
    ("ncaudit.audit", "combine_blocks", "blocks.encode", None),
    ("ncaudit.blocks", "decode_source_data", "blocks.decode_source_data", None),
    ("ncaudit.audit", "gen_proof", "audit.gen_proof", None),
    ("ncaudit.audit", "verify_proof", "audit.verify_proof", None),
    ("ncaudit.dynamics", "verify_proof", "audit.verify_proof", None),
    ("ncaudit.audit", "gen_challenge", "audit.gen_challenge", None),
    ("ncaudit.repair", "plan_exact_repair", "repair.plan", None),
    ("ncaudit.repair", "plan_functional_repair", "repair.plan", None),
    ("ncaudit.repair", "make_repair_blocks", "repair.combine", _shipped_bytes),
    ("ncaudit.repair", "reconstruct_node", "repair.combine", None),
    ("ncaudit.dynamics", "update_block", "dynamics.update_block", None),
    ("ncaudit.dynamics", "verify_with_deltas", "dynamics.verify_with_deltas", None),
    ("ncaudit.extractor", "extract_node", "extractor.extract_node", _extraction),
    ("ncaudit.cluster", "Cluster.run_audit_round", "cluster.run_audit_round", None),
]

# Only the CLI child processes import these.
CLI_TARGETS = [
    ("ncaudit.cli", "_load_store", "cli.load_store", None),
    ("ncaudit.cli", "_save_store", "cli.save_store", None),
]


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list = []          # (id, parent, name, start, end, counts)
        self.missing: list = []
        self._stack = [0]
        self._next = 1

    # -- recording -------------------------------------------------------
    def _open(self):
        sid = self._next
        self._next += 1
        parent = self._stack[-1]
        self._stack.append(sid)
        return sid, parent

    def _close(self, sid, parent, name, start, counts):
        end = time.perf_counter()
        self._stack.pop()
        self.spans.append((sid, parent, name, start, end, counts))

    def span(self, name: str):
        return _Span(self, name)

    def wrap(self, fn, name, counter=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid, parent = self._open()
            start = time.perf_counter()
            counts = None
            try:
                result = fn(*args, **kwargs)
                if counter is not None:
                    counts = counter(args, kwargs, result)
                return result
            finally:
                self._close(sid, parent, name, start, counts)
        return traced

    def install(self, targets=TARGETS) -> None:
        """Wrap every target; a name that no longer exists is recorded as
        missing and skipped."""
        for modname, attr, name, counter in targets:
            try:
                owner = importlib.import_module(modname)
                *path, leaf = attr.split(".")
                for part in path:
                    owner = getattr(owner, part)
                fn = getattr(owner, leaf)
            except (ImportError, AttributeError):
                self.missing.append(f"{modname}.{attr}")
                continue
            setattr(owner, leaf, self.wrap(fn, name, counter))

    # -- merging and output ----------------------------------------------
    def adopt(self, path) -> None:
        """Append the spans a child process wrote, under the open span.

        perf_counter is the system-wide monotonic clock on Linux, so the
        child's times sit on the parent's time line."""
        base, parent = self._next, self._stack[-1]
        top = 0
        with open(path) as fh:
            for line in fh:
                s = json.loads(line)
                sid = base + s["id"]
                top = max(top, sid)
                self.spans.append((sid, base + s["parent"] if s["parent"] else parent,
                                   s["name"], s["start"], s["end"], s["counts"]))
        self._next = max(self._next, top + 1)

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            for sid, parent, name, start, end, counts in self.spans:
                fh.write(json.dumps({"run": self.run_id, "id": sid, "parent": parent,
                                     "name": name, "start": start, "end": end,
                                     "counts": counts}) + "\n")


class _Span:
    def __init__(self, tracer, name):
        self.tracer, self.name, self.counts = tracer, name, {}

    def __enter__(self):
        self.sid, self.parent = self.tracer._open()
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.tracer._close(self.sid, self.parent, self.name, self.start,
                           self.counts or None)
        return False


# --------------------------------------------------------------- summaries
#
# metric: (span names, "self" | "total", scope, scale, listed)
#   scope "setup": summed within each set-up operation, median over set-ups
#   scope "ops":   summed within each other operation that ran it, median
#   scope "any":   summed within each operation that ran it, median
#   scope "call":  median over single calls
# "listed" metrics are in BENCHMARK.json; every workload runs their layers.
# The others run on only some workloads and are printed for reference.
TIMES = {
    "prf.keystream_s": (("prf.eval_range",), "self", "setup", 1, True),
    "field.kernel_setup_s": (KERNELS, "self", "setup", 1, True),
    "field.kernel_s": (KERNELS, "self", "ops", 1, True),
    "field.eliminate_ms": (ELIMINATION, "self", "any", 1e3, True),
    "spacemac.mac_ms": (("spacemac.mac",), "total", "setup", 1e3, True),
    "ncrypt.setup_s": (("ncrypt.setup",), "total", "setup", 1, True),
    "ncrypt.mask_ms": (("ncrypt.mask_for_nonce",), "total", "call", 1e3, True),
    "blocks.encode_s": (("blocks.encode",), "total", "setup", 1, True),
    "audit.gen_proof_ms": (("audit.gen_proof",), "self", "call", 1e3, True),
    "audit.verify_proof_ms": (("audit.verify_proof",), "total", "call", 1e3, True),
    "audit.gen_challenge_ms": (("audit.gen_challenge",), "total", "call", 1e3, True),
    "blocks.decode_ms": (("blocks.decode_source_data",), "total", "call", 1e3, False),
    "repair.plan_ms": (("repair.plan",), "total", "ops", 1e3, False),
    "repair.combine_ms": (("repair.combine",), "total", "ops", 1e3, False),
    "dynamics.update_ms": (("dynamics.update_block",), "total", "call", 1e3, False),
    "dynamics.delta_verify_ms": (("dynamics.verify_with_deltas",), "self", "call", 1e3, False),
    "cluster.wire_ms": (("cluster.run_audit_round",), "self", "call", 1e3, False),
    "cli.load_store_ms": (("cli.load_store",), "total", "call", 1e3, False),
    "cli.save_store_ms": (("cli.save_store",), "total", "call", 1e3, False),
}

# metric: (count key, operation kinds or None for any, unit)
COUNTS = {
    "prf.symbols": ("symbols", ("setup",), "count"),
    "field.mults_per_audit": ("mults", ("audit",), "count"),
    "repair.shipped_bytes": ("shipped", None, "B"),
    "extractor.queries": ("queries", ("extract",), "count"),
    "cluster.control_bytes": ("control_bytes", ("audit",), "B"),
    "cluster.proof_bytes": ("proof_bytes", ("audit",), "B"),
    "cli.store_bytes": ("store_bytes", ("setup",), "B"),
}

TIME_UNITS = {1: "s", 1e3: "ms"}


def _median(values):
    return statistics.median(values) if values else 0.0


def summarize(spans, startup_s):
    """Per-layer metrics from the spans of one run.

    Returns (listed, reference): `listed` has every metric BENCHMARK.json
    names, `reference` adds the layers that only some workloads run."""
    info = {sid: (parent, name) for sid, parent, name, _, _, _ in spans}
    covered = defaultdict(float)
    for sid, parent, _, start, end, _ in spans:
        covered[parent] += end - start

    op_cache = {0: None}

    def op_of(sid):
        """(id, kind) of the benchmark operation a span ran in, or None."""
        if sid not in op_cache:
            parent, name = info[sid]
            op_cache[sid] = (sid, name[3:]) if name.startswith("op:") else op_of(parent)
        return op_cache[sid]

    per_op = defaultdict(lambda: defaultdict(float))     # op id -> key -> value
    op_kind = {}
    calls = defaultdict(list)                            # (stat, name) -> values
    lookups = derives = queries = discarded = 0
    for sid, parent, name, start, end, counts in spans:
        op = op_of(sid)
        if op is None:
            continue
        oid, kind = op
        op_kind[oid] = kind
        if name.startswith("op:"):
            for key, value in (counts or {}).items():
                per_op[oid][key] += value
            continue
        total = end - start
        self_t = total - covered[sid]
        per_op[oid][("total", name)] += total
        per_op[oid][("self", name)] += self_t
        calls[("total", name)].append(total)
        calls[("self", name)].append(self_t)
        for key, value in (counts or {}).items():
            per_op[oid][key] += value
        if kind != "setup":
            if name == "spacemac.r_vector":
                lookups += 1
            elif (name == "prf.derive_r_vector"
                  and info.get(parent, (0, ""))[1] == "spacemac.r_vector"):
                derives += 1
        if name == "extractor.extract_node" and counts:
            queries += counts["queries"]
            discarded += counts["discarded"]

    listed, reference = {}, {}
    for metric, (names, stat, scope, scale, is_listed) in TIMES.items():
        keys = [(stat, n) for n in names]
        if scope == "call":
            values = [v for k in keys for v in calls[k]]
        else:
            values = [sum(vals.get(k, 0.0) for k in keys)
                      for oid, vals in per_op.items()
                      if any(k in vals for k in keys)
                      and (scope == "any" or (op_kind[oid] == "setup") == (scope == "setup"))]
        entry = {"value": _median(values) * scale, "unit": TIME_UNITS[scale]}
        reference[metric] = dict(entry, samples=len(values))
        if is_listed:
            listed[metric] = entry
    for metric, (key, kinds, unit) in COUNTS.items():
        values = [vals[key] for oid, vals in per_op.items()
                  if key in vals and (kinds is None or op_kind[oid] in kinds)]
        entry = {"value": _median(values), "unit": unit}
        listed[metric] = entry
        reference[metric] = dict(entry, samples=len(values))
    ratios = {
        "spacemac.r_cache_hit_ratio": (lookups - derives) / lookups if lookups else 0.0,
        "extractor.kept_ratio": (queries - discarded) / queries if queries else 0.0,
    }
    for metric, value in ratios.items():
        listed[metric] = reference[metric] = {"value": value, "unit": "ratio"}
    listed["cli.startup_ms"] = {"value": _median(startup_s) * 1e3, "unit": "ms"}
    reference["cli.startup_ms"] = dict(listed["cli.startup_ms"], samples=len(startup_s))
    return listed, reference
