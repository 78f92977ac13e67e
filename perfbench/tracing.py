"""Outside-in tracing: wrappers installed at the names callers bind.

Each target is a (module, attribute) pair through which some caller reaches
a layer, for example `hetdapac.harness.encode_query` or
`hetdapac.schemes.het2.pair_set`; wrapping only the defining module would
miss those calls. `Tracer.install` replaces every target with a wrapper
that records a span (name, start, end, parent, op id) in memory and feeds
exact counts through the target's observer; `Tracer.restore` puts the
originals back. The program itself is never edited.

A layer's time is the summed duration of its spans; a `*.self_s` metric is
the span's duration minus the part its direct child spans cover.
"""

from __future__ import annotations

import importlib
import time
from collections import Counter

SPAN_MARK = "_perfbench_span"
AUDIT_OPS = ("op.privacy", "op.secrecy", "op.counts")


# ---------------------------------------------------------------- observers
# observer(counts, span, args, result) runs after a call returns normally.

def _store(counts, span, args, store):
    counts["store.symbols"] += sum(len(sym) for sym in store.values())


def _allocate(counts, span, args, pool):
    counts["randomness.allocated_symbols"] += pool.allocated_symbols


def _build(counts, span, args, result):
    _, queries = result
    counts["schemes.query_groups"] += sum(len(q.groups) for q in queries.values())


def _answer(counts, span, args, result):
    ctx, query = args[0], args[1]
    span[0] = "schemes.answer.central" if ctx.is_central else "schemes.answer.dedicated"
    rows = sum(len(g.descriptor.rows) for g in query.groups)
    counts["schemes.answer_madds"] += rows * ctx.pool.chunk_len
    counts["schemes.pad_chunks"] += sum(len(labels) for labels in result[1])


def _decode(counts, span, args, result):
    counts["harness.decoded"] += 1


def _query_in(counts, span, args, query):
    counts["wire.upload_symbols"] += sum(len(g.vector) for g in query.groups)


def _answers_in(counts, span, args, shares):
    counts["wire.download_symbols"] += sum(len(s.payload) for s in shares)


def _canonical(counts, span, args, blob):
    counts["wire.digest_bytes"] += len(blob)


def _retrieval(counts, span, args, result):
    counts["randomness.consumed_symbols"] += result[2]["randomness_consumed_symbols"]


def _segment(counts, span, args, segment):
    counts["mixer.segment_copy_symbols"] += sum(len(sym) for sym in segment.values())


# Every per-layer metric in report order, with its unit. The three audit
# report totals and the overhead are filled in by the benchmark command.
PER_LAYER = (
    ("store.gen_s", "s"), ("store.symbols", "count"),
    ("randomness.allocate_s", "s"), ("randomness.allocate_calls", "count"),
    ("randomness.allocated_symbols", "count"), ("randomness.consumed_symbols", "count"),
    ("access.set_calls", "count"), ("access.set_s", "s"),
    ("schemes.build_s", "s"), ("schemes.query_groups", "count"),
    ("wire.upload_symbols", "count"),
    ("schemes.answer_s.dedicated", "s"), ("schemes.answer_s.central", "s"),
    ("schemes.answer_calls", "count"), ("schemes.answer_madds", "count"),
    ("schemes.pad_chunks", "count"),
    ("schemes.decode_s", "s"), ("harness.attempts", "count"),
    ("harness.retries", "count"), ("harness.decoded_per_attempt", "ratio"),
    ("wire.encode_s", "s"), ("wire.decode_s", "s"), ("wire.digest_s", "s"),
    ("wire.digest_bytes", "bytes"), ("wire.messages", "count"),
    ("wire.download_symbols", "count"),
    ("harness.self_s", "s"),
    ("mixer.segment_copy_s", "s"), ("mixer.segment_copy_symbols", "count"),
    ("mixer.self_s", "s"),
    ("audit.answer_calls", "count"), ("audit.answer_s", "s"), ("audit.self_s", "s"),
    ("audit.pool_assignments", "count"), ("audit.perturbations", "count"),
    ("audit.privacy_enumerated", "count"),
    ("trace.overhead_s", "s"), ("trace.spans", "count"),
)

_SCHEMES = ("hetdapac.schemes.het1", "hetdapac.schemes.het2", "hetdapac.schemes.dapac")

# (module, attribute, span name, observer)
TARGETS = (
    ("hetdapac", "random_store", "store.random_store", _store),
    ("hetdapac.audit", "random_store", "store.random_store", _store),
    ("hetdapac.harness", "allocate", "randomness.allocate", _allocate),
    ("hetdapac.mixer", "allocate", "randomness.allocate", _allocate),
    ("hetdapac.audit", "allocate", "randomness.allocate", _allocate),
    ("hetdapac.schemes.het1", "match_set", "access.set", None),
    ("hetdapac.schemes.het2", "match_set", "access.set", None),
    ("hetdapac.schemes.het2", "pair_set", "access.set", None),
    ("hetdapac.schemes.dapac", "pair_set", "access.set", None),
    *((mod, "build", "schemes.build", _build) for mod in _SCHEMES),
    *((mod, "answer_query", "schemes.answer", _answer) for mod in _SCHEMES),
    *((mod, "decode", "schemes.decode", _decode) for mod in _SCHEMES),
    ("hetdapac.harness", "encode_query", "wire.encode", None),
    ("hetdapac.harness", "encode_answers", "wire.encode", None),
    ("hetdapac.harness", "decode_query", "wire.decode", _query_in),
    ("hetdapac.harness", "decode_answers", "wire.decode", _answers_in),
    ("hetdapac.harness", "payload_digest", "wire.digest", None),
    ("hetdapac.wire", "canonical_json", "wire.canonical_json", _canonical),
    ("hetdapac", "run_protocol", "harness.run_protocol", _retrieval),
    ("hetdapac.audit", "run_protocol", "harness.run_protocol", _retrieval),
    ("hetdapac", "run_time_shared", "mixer.run_time_shared", _retrieval),
    ("hetdapac.mixer", "store_segment", "mixer.store_segment", _segment),
)


def target_key(target) -> str:
    return f"{target[0]}.{target[1]}"


def assert_pristine():
    """Raise if any target is currently a tracing wrapper."""
    wrapped = [target_key(t) for t in TARGETS
               if hasattr(getattr(importlib.import_module(t[0]), t[1]), SPAN_MARK)]
    if wrapped:
        raise RuntimeError(f"tracing wrappers still installed: {wrapped}")


class Tracer:
    """Spans and counts of one traced run, kept in memory until it ends.

    A span is the list [name, start_ns, end_ns, parent index, op id]; the
    parent is the innermost span open when it started (-1 at the top).
    """

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.fired: Counter = Counter()
        self.op_id = -1
        self._saved: list = []

    def span(self, name: str, fn, observer=None, key=None):
        """fn wrapped so that each call records a span named `name`."""
        spans, stack, counts, fired = self.spans, self.stack, self.counts, self.fired
        clock = time.perf_counter_ns
        tracer = self

        def wrapper(*args, **kwargs):
            if key is not None:
                fired[key] += 1
            record = [name, clock(), 0, stack[-1] if stack else -1, tracer.op_id]
            stack.append(len(spans))
            spans.append(record)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
            if observer is not None:
                observer(counts, record, args, result)
            return result

        wrapper.__wrapped__ = fn
        setattr(wrapper, SPAN_MARK, name)
        return wrapper

    def install(self):
        assert_pristine()
        try:
            for target in TARGETS:
                module_name, attr, name, observer = target
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
                self._saved.append((module, attr, original))
                setattr(module, attr, self.span(name, original, observer, target_key(target)))
        except BaseException:
            self.restore()  # a target that moved must not leave the rest wrapped
            raise

    def restore(self):
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)
        assert_pristine()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.restore()
        return False

    # ------------------------------------------------------------ results

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer seconds and exact counts over everything recorded."""
        spans = self.spans
        children = [0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                children[parent] += end - start
        total: Counter = Counter()
        own: Counter = Counter()
        calls: Counter = Counter()
        for i, (name, start, end, parent, _) in enumerate(spans):
            total[name] += end - start
            own[name] += end - start - children[i]
            calls[name] += 1
            if name.startswith("schemes.answer.") and self._under(i, AUDIT_OPS):
                total["audit.answer"] += end - start
                calls["audit.answer"] += 1
        c = self.counts
        attempts = calls["schemes.decode"]

        def s(ns):
            return ns / 1e9

        return {
            "store.gen_s": s(total["store.random_store"]),
            "store.symbols": c["store.symbols"],
            "randomness.allocate_s": s(total["randomness.allocate"]),
            "randomness.allocate_calls": calls["randomness.allocate"],
            "randomness.allocated_symbols": c["randomness.allocated_symbols"],
            "randomness.consumed_symbols": c["randomness.consumed_symbols"],
            "access.set_calls": calls["access.set"],
            "access.set_s": s(total["access.set"]),
            "schemes.build_s": s(total["schemes.build"]),
            "schemes.query_groups": c["schemes.query_groups"],
            "wire.upload_symbols": c["wire.upload_symbols"],
            "schemes.answer_s.dedicated": s(total["schemes.answer.dedicated"]),
            "schemes.answer_s.central": s(total["schemes.answer.central"]),
            "schemes.answer_calls": (calls["schemes.answer.dedicated"]
                                     + calls["schemes.answer.central"]),
            "schemes.answer_madds": c["schemes.answer_madds"],
            "schemes.pad_chunks": c["schemes.pad_chunks"],
            "schemes.decode_s": s(total["schemes.decode"]),
            "harness.attempts": attempts,
            "harness.retries": attempts - c["harness.decoded"],
            "harness.decoded_per_attempt": (c["harness.decoded"] / attempts
                                            if attempts else 0.0),
            "wire.encode_s": s(total["wire.encode"]),
            "wire.decode_s": s(total["wire.decode"]),
            "wire.digest_s": s(total["wire.digest"]),
            "wire.digest_bytes": c["wire.digest_bytes"],
            "wire.messages": calls["wire.digest"],
            "wire.download_symbols": c["wire.download_symbols"],
            "harness.self_s": s(own["harness.run_protocol"]),
            "mixer.segment_copy_s": s(total["mixer.store_segment"]),
            "mixer.segment_copy_symbols": c["mixer.segment_copy_symbols"],
            "mixer.self_s": s(own["mixer.run_time_shared"]),
            "audit.answer_calls": calls["audit.answer"],
            "audit.answer_s": s(total["audit.answer"]),
            "audit.self_s": s(sum(own[name] for name in AUDIT_OPS)),
            "trace.spans": len(spans),
        }

    def _under(self, i: int, names) -> bool:
        spans = self.spans
        parent = spans[i][3]
        while parent >= 0:
            if spans[parent][0] in names:
                return True
            parent = spans[parent][3]
        return False

    def write(self, path):
        """Spans as tab-separated lines: index, parent, op id, name, start, end."""
        with open(path, "w") as fh:
            fh.write("index\tparent\top\tname\tstart_ns\tend_ns\n")
            for i, (name, start, end, parent, op) in enumerate(self.spans):
                fh.write(f"{i}\t{parent}\t{op}\t{name}\t{start}\t{end}\n")
