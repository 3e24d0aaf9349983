"""Spans around faskit's public functions, recorded from outside the program.

`Tracer.installed()` replaces each function in `wrap_sites()` where its
caller looks it up (a module global or a class attribute) with a wrapper
that records a span, and puts the original back on exit. Each span holds
its name, start and end (`perf_counter_ns`), the index of its parent span
(-1 at the root), the attempt it belongs to (None during set-up) and a
tag taken from its result or exception. Spans stay in memory until
`write` saves them.

A span's self time is its duration minus the time its child spans cover.
The benchmark runs in one thread with no queues, so a layer has busy time
and counts but never waits.
"""

from __future__ import annotations

import contextlib
import json
from time import perf_counter_ns


@contextlib.contextmanager
def swap(owner, attr: str, replacement):
    """Set `owner.attr` to `replacement` for the duration of the block."""
    original = vars(owner)[attr]
    setattr(owner, attr, replacement)
    try:
        yield original
    finally:
        setattr(owner, attr, original)


def wrap_sites():
    """(owner, attribute, span name, result tag) for every wrapped call
    site. Several sites may share one span name: the same function
    reached through different callers."""
    from faskit import (algebra, authscore, fuzzyextractor, protocol,
                        simulator, thresholdsig)
    return (
        (algebra, "is_probable_prime", "algebra.is_probable_prime", None),
        (authscore, "is_probable_prime", "algebra.is_probable_prime", None),
        (thresholdsig, "share_secret", "sharing.share_secret", None),
        (protocol, "verify_share", "sharing.verify_share", bool),
        (protocol, "keygen_dealer", "thresholdsig.keygen_dealer", None),
        (thresholdsig.DeviceSigner, "round1", "thresholdsig.round1", None),
        (thresholdsig.DeviceSigner, "round2", "thresholdsig.round2", None),
        (protocol, "combine", "thresholdsig.combine", None),
        (thresholdsig, "verify", "thresholdsig.verify", None),  # in combine
        (protocol, "verify_signature", "thresholdsig.verify", None),  # SP
        (protocol, "fe_enroll", "fuzzyextractor.fe_enroll", None),
        (protocol, "fe_reproduce", "fuzzyextractor.fe_reproduce", None),
        (fuzzyextractor.HelperData, "to_json",
         "fuzzyextractor.helper_codec", None),
        (fuzzyextractor.HelperData, "from_json",
         "fuzzyextractor.helper_codec", None),
        (protocol, "fuse_local", "authscore.fuse_local", None),
        (authscore, "phe_keygen", "authscore.phe_keygen", None),
        (protocol, "phe_encrypt", "authscore.phe_encrypt", None),
        (protocol, "fuse_encrypted", "authscore.fuse_encrypted", None),
        (protocol, "phe_decrypt", "authscore.phe_decrypt", None),
        (protocol, "enroll", "protocol.enroll", None),
        (simulator, "enroll", "protocol.enroll", None),
        (protocol, "pd_run_authentication",
         "protocol.pd_run_authentication", None),
        (simulator, "pd_run_authentication",
         "protocol.pd_run_authentication", None),
        (protocol.ServiceProvider, "verify", "protocol.sp_verify", None),
        (protocol.FaspService, "handle_score_request",
         "protocol.handle_score_request", None),
        (protocol, "message_to_wire", "protocol.message_to_wire", len),
        (simulator, "message_to_wire", "protocol.message_to_wire", len),
        (simulator, "run_scenario", "simulator.run_scenario", None),
    )


# Per-layer metrics: (name, unit, better). Per-op values are averaged
# over the timed attempts of the traced run.
LAYER_METRICS = (
    ("algebra.is_probable_prime.calls_per_op", "count", "lower"),
    ("algebra.is_probable_prime.ms_per_op", "ms", "lower"),
    ("sharing.share_secret.ms_per_op", "ms", "lower"),
    ("sharing.verify_share.calls_per_op", "count", "lower"),
    ("sharing.verify_share.ms_per_op", "ms", "lower"),
    ("sharing.verify_share.pass_ratio", "fraction", "higher"),
    ("thresholdsig.keygen_dealer.ms_per_op", "ms", "lower"),
    ("thresholdsig.round1.ms_per_op", "ms", "lower"),
    ("thresholdsig.round2.ms_per_op", "ms", "lower"),
    ("thresholdsig.combine.ms_per_op", "ms", "lower"),
    ("thresholdsig.verify.calls_per_op", "count", "lower"),
    ("thresholdsig.verify.ms_per_op", "ms", "lower"),
    ("thresholdsig.combine.fail_ratio", "fraction", "lower"),
    ("fuzzyextractor.fe_enroll.ms_per_op", "ms", "lower"),
    ("fuzzyextractor.fe_reproduce.calls_per_op", "count", "lower"),
    ("fuzzyextractor.fe_reproduce.ms_per_op", "ms", "lower"),
    ("fuzzyextractor.helper_codec.ms_per_op", "ms", "lower"),
    ("authscore.fuse_local.ms_per_op", "ms", "lower"),
    ("authscore.phe_keygen.s", "s", "lower"),
    ("authscore.phe_encrypt.calls_per_op", "count", "lower"),
    ("authscore.phe_encrypt.ms_per_op", "ms", "lower"),
    ("authscore.fuse_encrypted.ms_per_op", "ms", "lower"),
    ("authscore.phe_decrypt.ms_per_op", "ms", "lower"),
    ("protocol.enroll.self_ms_per_op", "ms", "lower"),
    ("protocol.pd_run_authentication.self_ms_per_op", "ms", "lower"),
    ("protocol.sp_verify.self_ms_per_op", "ms", "lower"),
    ("protocol.handle_score_request.self_ms_per_op", "ms", "lower"),
    ("protocol.message_to_wire.ms_per_op", "ms", "lower"),
    ("protocol.messages_per_op", "count", "lower"),
    ("protocol.wire_bytes_per_op", "bytes", "lower"),
    ("simulator.run_scenario.self_ms_per_op", "ms", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
)


class _Layer:
    __slots__ = ("calls", "self_ns", "total_ns", "tags")

    def __init__(self):
        self.calls = 0
        self.self_ns = 0
        self.total_ns = 0
        self.tags = []


class Tracer:
    def __init__(self):
        self.spans: list = []   # [name, start, end, parent, attempt, tag]
        self._stack: list = []
        self.attempt = None     # attempt id stamped on new spans
        self._root = self._wrap("attempt", lambda fn, i: fn(i), None)

    def _wrap(self, name: str, fn, tag):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            span = [name, 0, 0, stack[-1] if stack else -1, self.attempt,
                    None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                span[5] = "raised:" + type(exc).__name__
                raise
            finally:
                span[2] = perf_counter_ns()
                stack.pop()
            if tag is not None:
                span[5] = tag(result)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        with contextlib.ExitStack() as stack:
            for owner, attr, name, tag in wrap_sites():
                original = vars(owner)[attr]
                if isinstance(original, classmethod):
                    wrapped = classmethod(self._wrap(name, original.__func__,
                                                     tag))
                else:
                    wrapped = self._wrap(name, original, tag)
                stack.enter_context(swap(owner, attr, wrapped))
            yield self

    def run_attempt(self, i: int, fn):
        """Return fn(i) under the root span of attempt i. Spans opened
        after it carry attempt id i until the next attempt starts."""
        self.attempt = i
        return self._root(fn, i)

    def layers(self, first_attempt: int) -> tuple:
        """Calls, self and total time, and tags per span name over the
        attempts from `first_attempt` on, and the same for set-up spans."""
        covered = [0] * len(self.spans)
        for name, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        timed, setup = {}, {}
        for (name, start, end, _, attempt, tag), child in zip(self.spans,
                                                              covered):
            if attempt is None:
                table = setup
            elif attempt >= first_attempt:
                table = timed
            else:
                continue
            layer = table.setdefault(name, _Layer())
            layer.calls += 1
            layer.self_ns += end - start - child
            layer.total_ns += end - start
            layer.tags.append(tag)
        return timed, setup

    def layer_metrics(self, first_attempt: int, attempts: int,
                      overhead_ratio: float) -> dict:
        timed, setup = self.layers(first_attempt)
        empty = _Layer()

        def per_op(name, field):
            layer = timed.get(name, empty)
            return (layer.calls if field == "calls"
                    else layer.self_ns / 1e6) / attempts

        def share(name, predicate):
            tags = timed.get(name, empty).tags
            return sum(map(predicate, tags)) / len(tags) if tags else 0.0

        keygen = setup.get("authscore.phe_keygen", empty)
        values = {
            "sharing.verify_share.pass_ratio":
                share("sharing.verify_share", lambda tag: tag is True),
            "thresholdsig.combine.fail_ratio":
                share("thresholdsig.combine",
                      lambda tag: str(tag).startswith("raised:")),
            # A whole key, prime search included.
            "authscore.phe_keygen.s":
                keygen.total_ns / 1e9 / keygen.calls if keygen.calls else 0.0,
            "protocol.messages_per_op":
                per_op("protocol.message_to_wire", "calls"),
            "protocol.wire_bytes_per_op":
                sum(timed.get("protocol.message_to_wire", empty).tags)
                / attempts,
            "trace.overhead_ratio": overhead_ratio,
        }
        for metric, _, _ in LAYER_METRICS:
            if metric in values:
                continue
            span, _, field = metric.rpartition(".")
            values[metric] = per_op(
                span, "calls" if field == "calls_per_op" else "ms")
        return values

    def write(self, path) -> None:
        """Save the spans as JSON lines: name, start_ns, end_ns, parent
        span index, attempt id, tag."""
        with open(path, "w") as out:
            for span in self.spans:
                out.write(json.dumps(span, separators=(",", ":")) + "\n")
