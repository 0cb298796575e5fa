"""Span recorder that times tamperstore's layers from outside the package.

``Tracer.install_layers`` replaces, for the duration of a traced run, the
functions that ``tamperstore.protocol`` (and the CLI) call into each layer
with wrappers that record a span: name, start, end, parent span and
session id.  Spans stay in memory; ``write_jsonl`` writes them out at the
end.  ``uninstall`` puts every original attribute back and reports any it
could not restore.  Nothing under ``src/`` is modified.

``GF2Field.mul_int`` is counted, not timed: it runs about a thousand
times per session at roughly 2 us each, and timing every call would
distort the spans of its callers.
"""

from __future__ import annotations

import functools
import json
import os
import statistics
import time
from collections import Counter, defaultdict

# spans the benchmark itself opens around each call of a session; layer
# spans are their direct children
PROTOCOL_LEVEL = (
    "protocol.store",
    "protocol.apply_noise",
    "experiments.attack",
    "protocol.retrieve",
)

# names tamperstore.protocol binds from its layers -> span name
_PROTOCOL_NAMES = {
    "compress": "randomizer.compress",
    "randomize": "randomizer.randomize",
    "derandomize": "randomizer.derandomize",
    "decompress": "randomizer.decompress",
    "prepare": "qsim.prepare",
    "measure": "qsim.measure",
    "apply_storage_noise": "qsim.noise",
    "tag": "mac.tag",
    "verify": "mac.verify",
    "one_time_pad": "protocol.one_time_pad",
    "derive_params": "params.derive",
}

# names the CLI binds directly (it calls store/retrieve without ProtocolInstance)
_CLI_NAMES = {
    "protocol_store": "protocol.store",
    "protocol_retrieve": "protocol.retrieve",
    "derive_params": "params.derive",
    "main": "cli.main",
}


class Tracer:
    def __init__(self):
        self.spans: list = []  # (name, start_ns, end_ns, parent_index, session)
        self.counts: Counter = Counter()  # (session, name) -> n
        self.session = None
        self._stack: list[int] = []
        self._patches: list = []  # (owner, attr, original)

    # -- recording ------------------------------------------------------------

    def begin(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter_ns(), None, parent, self.session])
        self._stack.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter_ns()
        popped = self._stack.pop()
        if popped != index:
            raise RuntimeError(f"span {self.spans[index][0]} closed out of order")

    def call(self, name: str, fn, *args, **kwargs):
        index = self.begin(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.end(index)

    def count(self, name: str, n: int = 1) -> None:
        self.counts[(self.session, name)] += n

    def wrap(self, name: str, fn, observe=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = tracer.call(name, fn, *args, **kwargs)
            if observe is not None:
                observe(tracer, args, result)
            return result

        return wrapper

    def counting(self, name: str, fn):
        counts = self.counts
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[(tracer.session, name)] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- patching -------------------------------------------------------------

    def _patch(self, owner, attr: str, replacement) -> None:
        original = vars(owner)[attr]
        self._patches.append((owner, attr, original))
        setattr(owner, attr, replacement)

    def _patch_function(self, owner, attr, name, observe=None):
        self._patch(owner, attr, self.wrap(name, vars(owner)[attr], observe))

    def _patch_classmethod(self, owner, attr, name):
        original = vars(owner)[attr]
        self._patch(owner, attr, classmethod(self.wrap(name, original.__func__)))

    def install_layers(self, cli: bool = False) -> None:
        """Wrap every layer boundary the session path crosses."""
        from tamperstore import kv, protocol
        from tamperstore.bits import Bits
        from tamperstore.gf2 import GF2Field
        from tamperstore.linear_code import CodeRegistry, LinearCode
        from tamperstore.params import ProtocolParams
        from tamperstore.qsim import EveView, TrapLayout
        from tamperstore.randomizer import PrefixCode

        for attr, name in _PROTOCOL_NAMES.items():
            observe = _observe_verify if attr == "verify" else None
            self._patch_function(protocol, attr, name, observe)
        self._patch_classmethod(TrapLayout, "random", "qsim.trap_layout")
        for cls in _subclasses(LinearCode):
            if "syn" in vars(cls):
                self._patch_function(cls, "syn", "linear_code.syn")
            if "syn_dec" in vars(cls):
                self._patch_function(cls, "syn_dec", "linear_code.syn_dec", _observe_syn_dec)
        self._patch(GF2Field, "mul_int", self.counting("gf2.mul_int", vars(GF2Field)["mul_int"]))
        self._patch_function(Bits, "to_array", "bits.convert")
        self._patch_classmethod(Bits, "from_array", "bits.convert")
        prop = vars(PrefixCode)["max_len"]
        self._patch(PrefixCode, "max_len", property(self.wrap("randomizer.max_len", prop.fget)))
        self._patch_function(CodeRegistry, "build", "linear_code.build")
        self._patch_function(ProtocolParams, "validate", "params.validate")
        self._patch_function(EveView, "measure", "qsim.eve")
        self._patch_function(EveView, "replace", "qsim.eve")
        self._patch_function(kv, "dump", "kv.dump", _observe_kv_dump)
        self._patch_function(kv, "load", "kv.load")
        if cli:
            from tamperstore import cli as cli_module

            for attr, name in _CLI_NAMES.items():
                self._patch_function(cli_module, attr, name)

    def uninstall(self) -> list[str]:
        """Restore every patched attribute; return the ones left modified."""
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        left = [
            f"{getattr(owner, '__name__', owner)}.{attr}"
            for owner, attr, original in self._patches
            if vars(owner).get(attr) is not original
        ]
        self._patches.clear()
        return left

    # -- output ---------------------------------------------------------------

    def export(self) -> dict:
        return {
            "spans": self.spans,
            "counts": [[s, n, c] for (s, n), c in self.counts.items()],
        }

    def absorb(self, exported: dict) -> None:
        """Append spans and counts written by another process."""
        offset = len(self.spans)
        for name, start, end, parent, session in exported["spans"]:
            self.spans.append([name, start, end, parent + offset if parent >= 0 else -1, session])
        for session, name, count in exported["counts"]:
            self.counts[(session, name)] += count

    def write_jsonl(self, path) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as fh:
            for name, start, end, parent, session in self.spans:
                fh.write(json.dumps({"name": name, "start_ns": start, "end_ns": end,
                                     "parent": parent, "session": session}) + "\n")


def _subclasses(cls):
    out = []
    for sub in cls.__subclasses__():
        out.append(sub)
        out.extend(_subclasses(sub))
    return out


def _observe_verify(tracer, args, accepted):
    if not accepted:
        tracer.count("mac.reject")


def _observe_syn_dec(tracer, args, pattern):
    syndrome = args[1]
    if syndrome.value != 0:
        tracer.count("linear_code.syn_dec_nonzero")
    if pattern is None:
        tracer.count("linear_code.decode_fail")


def _observe_kv_dump(tracer, args, _):
    tracer.count("kv.bytes", os.path.getsize(args[0]))


# ---------------------------------------------------------------------------
# summaries
# ---------------------------------------------------------------------------

def _median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def summarize(tracer: Tracer, session_root: str | None) -> dict:
    """Per-layer figures from the recorded spans.

    ``session_root`` names the span that covers one whole session
    (``"session"`` in process); None means the session is the sum of the
    protocol-level spans (CLI children, where interpreter start-up and
    file I/O surround the protocol calls).
    """
    spans = tracer.spans
    duration = [(end - start) / 1e3 for _, start, end, _, _ in spans]  # us
    child_time = [0.0] * len(spans)
    for i, (_, _, _, parent, _) in enumerate(spans):
        if parent >= 0:
            child_time[parent] += duration[i]

    per_call = defaultdict(list)
    per_session = defaultdict(lambda: defaultdict(float))
    calls = defaultdict(lambda: defaultdict(int))
    module_busy = defaultdict(lambda: defaultdict(float))
    self_time = defaultdict(list)
    layer_total = 0.0
    protocol_total = 0.0
    session_total = 0.0
    sessions = set()
    for i, (name, _, _, parent, session) in enumerate(spans):
        per_call[name].append(duration[i])
        per_session[session][name] += duration[i]
        calls[session][name] += 1
        if name == session_root:
            session_total += duration[i]
        if name in PROTOCOL_LEVEL:
            sessions.add(session)
            protocol_total += duration[i]
            self_time[name].append(duration[i] - child_time[i])
        elif parent >= 0 and spans[parent][0] in PROTOCOL_LEVEL:
            layer_total += duration[i]
        module = name.split(".")[0]
        ancestor = parent
        while ancestor >= 0 and spans[ancestor][0].split(".")[0] != module:
            ancestor = spans[ancestor][3]
        if ancestor < 0:
            module_busy[session][module] += duration[i]
    if session_root is None:
        session_total = protocol_total

    def session_median(fn):
        return _median([fn(s) for s in sessions])

    def count_per_session(name):
        return session_median(lambda s: tracer.counts[(s, name)])

    total_counts = Counter()
    for (_, name), c in tracer.counts.items():
        total_counts[name] += c
    syn_dec_calls = len(per_call["linear_code.syn_dec"])
    return {
        "per_call": {name: _median(values) for name, values in per_call.items()},
        "self": {name: _median(values) for name, values in self_time.items()},
        "busy": {m: session_median(lambda s, m=m: module_busy[s][m])
                 for m in ("linear_code", "qsim", "randomizer")},
        "per_session": {
            name: session_median(lambda s, n=name: per_session[s][n])
            for name in ("bits.convert", "experiments.trial_prep", "cli.main",
                         "kv.dump", "kv.load")
        },
        "calls_per_session": {
            name: session_median(lambda s, n=name: calls[s][n])
            for name in ("bits.convert", "randomizer.max_len")
        },
        "mul_int_per_session": count_per_session("gf2.mul_int"),
        "kv_bytes_per_session": count_per_session("kv.bytes"),
        "syn_dec_nonzero_ratio": (
            total_counts["linear_code.syn_dec_nonzero"] / syn_dec_calls if syn_dec_calls else 0.0
        ),
        "decode_fail_count": total_counts["linear_code.decode_fail"],
        "mac_reject_count": total_counts["mac.reject"],
        "layer_coverage_pct": 100.0 * layer_total / session_total if session_total else 0.0,
        "accounted_pct": 100.0 * protocol_total / session_total if session_total else 0.0,
        "sessions": len(sessions),
    }
