"""Spans around prelab's layers, recorded from outside the package.

Each wrapper is installed at the name its callers look up: a function is
replaced in every prelab module that holds it (so `training.llm_forward`,
`cli.llm_forward` and `model.llm_forward` all hit the same wrapper), and a
method is replaced on its class. Autodiff backward closures are timed by
wrapping `autodiff.record`, the one function every primitive calls. No file
of the package changes, and uninstall() puts every original back.

A span is (span_id, parent_id, unit, name, start, end). `unit` identifies
the request the span belongs to: one train step or one analyze pass. Spans
stay in memory until the run ends.
"""

from __future__ import annotations

import gzip
import itertools
import json
import os
import sys
import time

# Autodiff functions that are not tape primitives: recording, the backward
# pass (wrapped on its own), and constant wrapping.
_AUTODIFF_INFRA = {"record", "backward", "no_grad", "params_in_graph",
                   "constant", "as_node"}


def tape_size(loss) -> tuple:
    """(nodes, bytes) reachable from `loss` along `.parents`; bytes is the sum
    of each node's `.value.nbytes` (views count at their nominal size)."""
    seen = set()
    stack = [loss]
    nbytes = 0
    while stack:
        node = stack.pop()
        if node.id in seen:
            continue
        seen.add(node.id)
        nbytes += node.value.nbytes
        stack.extend(node.parents)
    return len(seen), nbytes


class Tracer:
    def __init__(self):
        self.spans = []
        self.counts = {}
        self.unit = 0
        self.missing = []
        self._stack = []
        self._ids = itertools.count()
        self._undo = []

    # -- recording ---------------------------------------------------------

    def wrap(self, name: str, fn, unit_root: bool = False):
        """Return fn wrapped in a span called `name`. A unit-root span starts
        a new unit (request) before it opens."""
        spans, stack, ids, perf = self.spans, self._stack, self._ids, time.perf_counter

        def traced(*args, **kwargs):
            if unit_root:
                self.unit += 1
            sid = next(ids)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            t0 = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf()
                stack.pop()
                spans.append((sid, parent, self.unit, name, t0, t1))

        return traced

    def add_count(self, name: str, value: int) -> None:
        key = (name, self.unit)
        self.counts[key] = self.counts.get(key, 0) + value

    # -- installation ------------------------------------------------------

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def patch_function(self, module, attr: str, name: str, unit_root=False,
                       before=None, after=None):
        """Wrap module.attr in a span wherever a loaded prelab module holds it.

        `before(args)` and `after(args, result)` run outside the span, for
        counters that need the call's arguments or result.
        """
        fn = getattr(module, attr, None)
        if fn is None:
            self.missing.append(f"{module.__name__}.{attr}")
            return
        span = self.wrap(name, fn, unit_root)
        wrapper = span
        if before is not None or after is not None:
            def wrapper(*args, **kwargs):
                if before is not None:
                    before(args)
                result = span(*args, **kwargs)
                if after is not None:
                    after(args, result)
                return result
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "prelab" or mod_name.startswith("prelab.")):
                continue
            for key, val in list(vars(mod).items()):
                if val is fn:
                    self._set(mod, key, wrapper)

    def patch_method(self, cls, attr: str, name: str):
        if cls is None or attr not in vars(cls):
            self.missing.append(f"{getattr(cls, '__name__', '?')}.{attr}")
            return
        self._set(cls, attr, self.wrap(name, vars(cls)[attr]))

    def install_unit_timer(self, training, before=None) -> None:
        """The untraced run: one span per training.train_step call, nothing
        else. `before(args)` runs ahead of each step, outside its span."""
        self.patch_function(training, "train_step", "training.train_step", unit_root=True,
                            before=before)

    def install_all(self, m: dict, before=None) -> None:
        """The traced run: spans on every layer. `m` maps prelab module names
        (without the package prefix) to the loaded modules."""
        ad = m["autodiff"]
        self.install_unit_timer(m["training"], before)

        # autodiff: every tape primitive, backward, and each node's backward fn
        for attr, val in list(vars(ad).items()):
            if (callable(val) and getattr(val, "__module__", None) == ad.__name__
                    and not attr.startswith("_") and attr not in _AUTODIFF_INFRA
                    and not isinstance(val, type)):
                self.patch_function(ad, attr, f"autodiff.{attr}")
        self._patch_record(ad)
        self.patch_function(ad, "backward", "autodiff.backward", before=self._count_tape)

        for cls_name in ("DecoderBlock", "CausalSelfAttention", "Mlp", "LayerNorm",
                         "PredictionHead"):
            self.patch_method(getattr(m["layers"], cls_name, None), "__call__",
                              f"layers.{cls_name}")
        self.patch_method(getattr(m["optim"], "AdamW", None), "step", "optim.AdamW.step")

        functions = [
            ("training", "make_batch"), ("model", "llm_forward"),
            ("model", "total_loss"), ("model", "pre_loss"), ("optim", "grad_norm"),
            ("data", "generate_dataset"), ("data", "load_dataset"),
            ("archive", "read_archive"), ("model", "dump_hidden_states"),
            ("model", "read_hidden_states"), ("model", "load_checkpoint"),
            ("diagnostics", "pca_effective_dim"),
            ("diagnostics", "patch_metrics_over_images"),
            ("diagnostics", "redundancy"), ("diagnostics", "linear_probe"),
            ("diagnostics", "logit_lens"), ("numerics", "covariance"),
            ("numerics", "pearson_corr"), ("reports", "write_comparison"),
        ]
        for mod, attr in functions:
            self.patch_function(m[mod], attr, f"{mod}.{attr}")
        self.patch_function(
            m["archive"], "write_archive", "archive.write_archive",
            after=lambda args, _: self.add_count("archive.bytes_written",
                                                 os.path.getsize(args[0])))

    def _patch_record(self, ad) -> None:
        record = ad.record
        wrap = self.wrap

        def timed_record(op, value, parents, backward_fn):
            node = record(op, value, parents, backward_fn)
            if node.backward_fn is not None:
                node.backward_fn = wrap(f"autodiff.{op}.bwd", node.backward_fn)
            return node

        self._set(ad, "record", timed_record)

    def _count_tape(self, args) -> None:
        nodes, nbytes = tape_size(args[0])
        self.add_count("autodiff.tape_nodes", nodes)
        self.add_count("autodiff.tape_bytes", nbytes)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # -- results -----------------------------------------------------------

    def durations(self, name: str, units=None) -> list:
        """Inclusive seconds of every span called `name` (in `units`, if
        given), in start order."""
        units = None if units is None else set(units)
        return [t1 - t0 for _, _, u, n, t0, t1 in sorted(self.spans, key=lambda s: s[4])
                if n == name and (units is None or u in units)]

    def totals(self, scale: dict) -> dict:
        """{name: (calls, inclusive_s, self_s)} over the spans of the units in
        `scale`, each duration multiplied by its unit's scale. Self time is a
        span's duration minus its direct children's."""
        child_time = {}
        for _, parent, unit, _, t0, t1 in self.spans:
            if unit in scale and parent >= 0:
                child_time[parent] = child_time.get(parent, 0.0) + (t1 - t0) * scale[unit]
        out = {}
        for sid, _, unit, name, t0, t1 in self.spans:
            if unit not in scale:
                continue
            calls, incl, self_t = out.get(name, (0, 0.0, 0.0))
            dur = (t1 - t0) * scale[unit]
            out[name] = (calls + 1, incl + dur, self_t + dur - child_time.get(sid, 0.0))
        return out

    def count_total(self, name: str, units) -> int:
        units = set(units)
        return sum(v for (n, u), v in self.counts.items() if n == name and u in units)

    def write(self, path) -> None:
        """Spans as gzipped JSON lines: [id, parent, unit, name, start, end]."""
        with gzip.open(path, "wt") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
