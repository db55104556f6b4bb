"""In-memory span tracing around mmdselect's public layer functions.

``Tracer.installed()`` replaces each traced function at every place it is
bound inside the ``mmdselect`` package (a ``from .quad import lambda_set``
creates a second binding in the importing module, and only patching that
binding sees the calls made through it), and restores the originals on exit.
The program itself is not modified.

A span is ``[span_id, name, parent_id, op_id, start, end, attrs]``.  Spans
nest per thread; the root spans named in ``OP_ROOTS`` open a new op (one
trial of a sweep, one CLI command), later root spans on the same thread
belong to it.  ``layer_metrics`` reduces the spans of one pass to the
per-layer figures listed in ``BENCHMARK.json``.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import json
import os
import sys
import threading
import time
from collections import defaultdict

OP_ROOTS = ("bench.synth_block_gaussian", "cli.dispatch")


def _lambda_set_attrs(args, kwargs, out):
    return {"k": len(args[0]), "hard": bool(out.hard_case), "kkt": float(out.kkt_residual)}


def _bnb_attrs(args, kwargs, out):
    return {"nodes": int(out.node_count)}


def _perm_attrs(args, kwargs, out):
    n, m = out.test_sizes
    # entries of G gathered by the xx, yy and xy sub-blocks of one relabeling
    return {"perms": int(out.n_permutations), "gathered_bytes": 8 * (n * n + m * m + n * m)}


def _load_attrs(args, kwargs, out):
    return {"bytes": os.path.getsize(args[0]) + os.path.getsize(args[1])}


# (module, attribute path, span name, attribute extractor)
TARGETS = (
    ("core", "load_two_sample", "core.load_two_sample", _load_attrs),
    ("core", "split_train_test", "core.split_train_test", None),
    ("mmd", "median_heuristic", "mmd.median_heuristic", None),
    ("mmd", "gram", "mmd.gram", None),
    ("trs", "lambda_set", "trs.lambda_set", _lambda_set_attrs),
    ("quad", "assemble_quadratic", "quad.assemble_quadratic", None),
    ("quad", "greedy_select", "quad.greedy_select", None),
    ("quad", "local_search", "quad.local_search", None),
    ("quad", "exact_select_bnb", "quad.exact_select_bnb", _bnb_attrs),
    ("spectrahedron", "mirror_step", "spectrahedron.mirror_step", None),
    ("spectrahedron", "smd_run", "spectrahedron.smd_run", None),
    ("gauss", "ccp_select", "gauss.ccp_select", None),
    ("gauss", "GaussianPairTerms.cross_grad_batch", "gauss.cross_grad", None),  # batch < n*m
    ("gauss", "GaussianPairTerms.within_grad_at", "gauss.within_grad", None),
    ("gauss", "gauss_objective", "gauss.gauss_objective", None),
    # not reported: makes the selection a child span of permutation_test, so
    # that permutation.self_s is the relabel loop
    ("selectors", "Selector.select_with_diagnostics", "selectors.select", None),
    ("permutation", "permutation_test", "permutation.permutation_test", _perm_attrs),
    ("bench", "synth_block_gaussian", "bench.synth_block_gaussian", None),
    ("cli", "dispatch", "cli.dispatch", None),
)


class Tracer:
    def __init__(self):
        self.spans: list = []
        self._ids = itertools.count()
        self._ops = itertools.count()
        self._local = threading.local()

    def _wrap(self, name, fn, attrs_fn):
        spans, ids, ops, local = self.spans, self._ids, self._ops, self._local
        opens_op = name in OP_ROOTS

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = local.__dict__.setdefault("stack", [])
            parent = stack[-1] if stack else -1
            if parent == -1 and opens_op:
                local.op = next(ops)
            rec = [next(ids), name, parent, getattr(local, "op", -1), 0.0, 0.0, None]
            stack.append(rec[0])
            rec[4] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[5] = time.perf_counter()
                stack.pop()
                spans.append(rec)
            if attrs_fn is not None:
                rec[6] = attrs_fn(args, kwargs, out)
            return out

        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Patch every binding of every target inside ``mmdselect``."""
        import mmdselect.cli  # noqa: F401  (loads every module that binds a target)

        modules = [m for k, m in sys.modules.items() if k == "mmdselect" or k.startswith("mmdselect.")]
        undo = []
        try:
            for mod_name, path, span_name, attrs_fn in TARGETS:
                owner = sys.modules["mmdselect." + mod_name]
                if "." in path:
                    cls_name, attr = path.split(".")
                    cls = getattr(owner, cls_name)
                    fn = cls.__dict__[attr]
                    undo.append((cls, attr, fn))
                    setattr(cls, attr, self._wrap(span_name, fn, attrs_fn))
                    continue
                fn = getattr(owner, path)
                wrapper = self._wrap(span_name, fn, attrs_fn)
                for mod in modules:
                    for key, val in list(vars(mod).items()):
                        if val is fn:
                            undo.append((mod, key, fn))
                            setattr(mod, key, wrapper)
            yield self
        finally:
            for obj, key, fn in reversed(undo):
                setattr(obj, key, fn)

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for sid, name, parent, op, start, end, attrs in self.spans:
                rec = {"id": sid, "name": name, "parent": parent, "op": op, "start": start, "end": end}
                if attrs:
                    rec["attrs"] = attrs
                fh.write(json.dumps(rec) + "\n")


def layer_metrics(spans, n_ops: int) -> dict:
    """Per-layer figures from the spans of one pass of ``n_ops`` ops.

    ``.s`` is inclusive span time and ``.self_s`` span time minus child spans,
    both summed over threads and divided by ops; ``.calls`` likewise per op.
    A layer the workload never enters reads 0.
    """
    by_name = defaultdict(list)
    child_s = defaultdict(float)
    for rec in spans:
        by_name[rec[1]].append(rec)
        if rec[2] != -1:
            child_s[rec[2]] += rec[5] - rec[4]

    def total(name):
        return sum(r[5] - r[4] for r in by_name[name])

    def self_total(name):
        return sum(r[5] - r[4] - child_s[r[0]] for r in by_name[name])

    def attrs(name, key):
        return [r[6][key] for r in by_name[name] if r[6]]

    def mean(vals):
        return sum(vals) / len(vals) if vals else 0.0

    def ratio(num, den):
        return num / den if den else 0.0

    per_op = 1.0 / max(n_ops, 1)
    out = {}
    for name in dict.fromkeys(t[2] for t in TARGETS):
        out[name + ".s"] = total(name) * per_op

    out["core.load_two_sample.mb_per_s"] = ratio(
        sum(attrs("core.load_two_sample", "bytes")) / 1e6, total("core.load_two_sample")
    )
    out["mmd.gram.calls"] = len(by_name["mmd.gram"]) * per_op

    out["trs.lambda_set.calls"] = len(by_name["trs.lambda_set"]) * per_op
    out["trs.lambda_set.k_mean"] = mean(attrs("trs.lambda_set", "k"))
    out["trs.hard_case.calls"] = sum(attrs("trs.lambda_set", "hard")) * per_op
    out["trs.kkt_residual.max"] = max(attrs("trs.lambda_set", "kkt"), default=0.0)

    # oracle calls made by the B&B loop itself, not by its greedy/local start
    bnb_ids = {r[0] for r in by_name["quad.exact_select_bnb"]}
    node_oracle_calls = sum(1 for r in by_name["trs.lambda_set"] if r[2] in bnb_ids)
    nodes = attrs("quad.exact_select_bnb", "nodes")
    out["quad.bnb.nodes"] = mean(nodes)
    out["quad.bnb.oracle_calls_per_node"] = ratio(node_oracle_calls, sum(nodes))

    out["spectrahedron.mirror_step.calls"] = len(by_name["spectrahedron.mirror_step"]) * per_op
    out["gauss.ccp_select.self_s"] = self_total("gauss.ccp_select") * per_op

    perm_self = self_total("permutation.permutation_test")
    perms = sum(attrs("permutation.permutation_test", "perms"))
    gathered = sum(
        a["perms"] * a["gathered_bytes"]
        for a in (r[6] for r in by_name["permutation.permutation_test"] if r[6])
    )
    out["permutation.self_s"] = perm_self * per_op
    out["permutation.perms"] = perms * per_op
    out["permutation.s_per_perm"] = ratio(perm_self, perms)
    out["permutation.gb_per_s.computed"] = ratio(gathered / 1e9, perm_self)

    out["cli.self_s"] = self_total("cli.dispatch") * per_op
    return out
