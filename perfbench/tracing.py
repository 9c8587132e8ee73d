"""Per-layer tracing for the benchmark's traced run (--trace 1).

The library is measured from outside: each public function of a layer is
replaced, at the name its callers look up, by a wrapper that records a
span (id, parent, request, name, start, end) and the layer's counters.
Nothing here is imported by the untraced run.

A layer's self time is its span durations minus the time covered by its
child spans, so ``auth.verify`` does not also count the
``auth.authenticate`` -> ``auth.encode_message`` / ``auth.tag_message``
work nested inside it.
"""

from __future__ import annotations

import inspect
import time
from collections import defaultdict

ROOT_SPAN = "bench.unit"  # one span per unit of work, made by the benchmark


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


# -- counters taken at the wrappers ---------------------------------------
# Each hook sees the call's arguments and result; methods see self first.


def _count_pulses(c, args, kwargs, result):
    c["channel.pulses"] += _arg(args, kwargs, 0, "params").n_pulses


def _count_key_bits(c, args, kwargs, result):
    c["auth.key_bits_drawn"] += result[1]


def _count_rejects(c, args, kwargs, result):
    c["auth.verify.rejects"] += result is False


def _count_consumed(c, args, kwargs, result):
    c["core.SecretPool.consume.bits"] += _arg(args, kwargs, 1, "n")


def _count_pa(c, args, kwargs, result):
    n_in = len(_arg(args, kwargs, 0, "bits"))
    out_len = _arg(args, kwargs, 1, "out_len")
    c["protocol2.pa_bits_in"] += n_in
    c["protocol2.pa_bits_out"] += out_len
    c["protocol2.pa_bit_ops"] += n_in * out_len


def _count_ec(c, args, kwargs, result):
    c["protocol2.ec_key_bits"] += _arg(args, kwargs, 0, "alice").size
    c["protocol2.ec_leak_bits"] += result[2]


def layer_sites(lib):
    """(span name, [(owner, attribute), ...], counter hook) for every
    wrapped public function, listed at each place a caller looks it up."""
    p2, auth, budget = lib.protocol2, lib.auth, lib.budget
    return [
        ("channel.run_qkd", [(p2, "run_qkd"), (lib.cli, "run_qkd")], _count_pulses),
        ("auth.key_from_pool", [(auth, "key_from_pool")], _count_key_bits),
        ("auth.encode_message", [(auth, "encode_message")], None),
        ("auth.tag_message", [(auth, "tag_message")], None),
        ("auth.authenticate", [(auth, "authenticate")], None),
        ("auth.verify", [(auth, "verify")], _count_rejects),
        ("core.SecretPool.consume", [(lib.core.SecretPool, "consume")], _count_consumed),
        ("core.SecretPool.refuel", [(lib.core.SecretPool, "refuel")], None),
        ("estimation.solve_eps_limit",
         [(lib.estimation, "solve_eps_limit"), (p2, "solve_eps_limit")], None),
        ("protocol2.privacy_amplify", [(p2, "privacy_amplify")], _count_pa),
        ("protocol2.error_correct", [(p2, "error_correct")], _count_ec),
        ("protocol2.wire",
         [(p2.WireMessage, "to_bytes"), (p2.WireMessage, "from_bytes")], None),
        ("protocol2.run_protocol2", [(p2, "run_protocol2")], None),
        ("budget.distilled_len", [(budget, "distilled_len"), (p2, "distilled_len")], None),
        ("budget.optimize_intensity", [(budget, "optimize_intensity")], None),
        ("budget.break_even_pulses", [(budget, "break_even_pulses")], None),
        ("protocol1.run_protocol1", [(lib.protocol1, "run_protocol1")], None),
        ("protocol1.run_trials", [(lib.protocol1, "run_trials")], None),
        ("cli.main", [(lib.cli, "main")], None),
    ]


class Tracer:
    """Spans and counters kept in memory; ``write_spans`` saves them.

    At most ``span_cap`` spans are stored (the rest are only counted in
    ``dropped``); calls, self times and counters cover every call.
    """

    def __init__(self, span_cap: int = 100_000):
        self.span_cap = span_cap
        self.spans: list[tuple] = []
        self.dropped = 0
        self.request = ""
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.layer_s: dict[str, float] = defaultdict(float)  # outermost spans only
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[list] = []  # [span id, layer, child seconds]
        self._next_id = 0
        self._patched: list[tuple] = []

    def wrap(self, name: str, fn, hook=None):
        layer = name.split(".", 1)[0]
        clock = time.perf_counter

        def traced(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            stack = self._stack
            parent = stack[-1] if stack else None
            frame = [span_id, layer, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                self.calls[name] += 1
                self.self_s[name] += duration - frame[2]
                if parent is not None:
                    parent[2] += duration
                if all(f[1] != layer for f in stack):
                    self.layer_s[layer] += duration
                if len(self.spans) < self.span_cap:
                    self.spans.append((span_id, -1 if parent is None else parent[0],
                                       self.request, name, start, end))
                else:
                    self.dropped += 1
            if hook is not None:
                hook(self.counts, args, kwargs, result)
            return result

        return traced

    def root(self, fn):
        """fn wrapped in the unit's root span; layer shares are taken
        against the total time of these spans."""
        return self.wrap(ROOT_SPAN, fn)

    @property
    def root_seconds(self) -> float:
        return self.layer_s[ROOT_SPAN.split(".", 1)[0]]

    def install(self, sites) -> None:
        """Patch every site; a missing name stops the run, naming it."""
        for name, targets, hook in sites:
            for owner, attr in targets:
                try:
                    original = inspect.getattr_static(owner, attr)
                except AttributeError:
                    self.uninstall()
                    raise SystemExit(
                        f"traced run: wrapped public name {owner.__name__}.{attr} "
                        f"(span {name}) no longer exists") from None
                if isinstance(original, classmethod):
                    patched = classmethod(self.wrap(name, original.__func__, hook))
                else:
                    patched = self.wrap(name, original, hook)
                self._patched.append((owner, attr, original))
                setattr(owner, attr, patched)

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id,parent,request,name,start_s,end_s\n")
            for span_id, parent, request, name, start, end in self.spans:
                fh.write(f"{span_id},{parent},{request},{name},{start:.9f},{end:.9f}\n")
