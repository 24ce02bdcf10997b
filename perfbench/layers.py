"""Which entry point of which layer gets a span, and the per-layer metrics.

:func:`instrument` wraps the public entry points the program's layers
expose (classes and modules under ``repro``); :class:`LayerProbe` keeps
the operation counts and the obfuscator freshness check that ride on
those wrappers.  :func:`layer_metrics` turns the traced phase's spans
and counter deltas into the ``per_layer`` metrics of ``BENCHMARK.json``.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, List

from repro.crypto.engine import HeEngine
from repro.crypto.paillier import Paillier
from repro.federation import coordinator, shard
from repro.federation.aggregator import SecureAggregator
from repro.federation.channel import Channel
from repro.federation.eventloop import AsyncChannel
from repro.federation.wal import WriteAheadLog
from repro.gpu.kernels import GpuKernels
from repro.models.base import FederatedModel
from repro.quantization.packing import BatchPacker
from repro.tensor.cipher import CipherTensor
from repro.tensor.plain import PlainTensor

from tracer import Tracer


def _batch(args, kwargs) -> list:
    """The batch argument of a wrapped ``method(self, batch, ...)``."""
    return args[1] if len(args) > 1 else next(iter(kwargs.values()))


def _defining_class(cls: type, attr: str) -> type:
    for klass in cls.__mro__:
        if attr in klass.__dict__:
            return klass
    raise AttributeError(f"{cls.__name__} has no attribute {attr!r}")


class LayerProbe:
    """Operation counts and the obfuscator freshness check.

    For every encryption ``c = (1 + m n) r^n mod n^2`` the obfuscator is
    recovered as ``r^n = c (1 + m n)^{-1} = c (1 - m n) mod n^2`` from
    the wrapped call's own inputs and outputs, without the secret key.
    Two equal obfuscators mean a randomizer was reused.
    """

    def __init__(self) -> None:
        self.ops: Dict[str, int] = defaultdict(int)
        self.serialized_bytes = 0
        self.encryptions = 0
        self._obfuscators = set()
        self._pending: List[tuple] = []

    def counter(self, op: str):
        ops = self.ops

        def after(args, kwargs, result):
            ops[op] += len(_batch(args, kwargs))

        return after

    def after_encrypt(self, args, kwargs, result) -> None:
        plaintexts = _batch(args, kwargs)
        self.ops["encrypt"] += len(plaintexts)
        self._pending.append((args[0].public_key, plaintexts, result))

    def after_serialize(self, args, kwargs, result) -> None:
        self.serialized_bytes += len(result)

    def flush(self) -> None:
        """Recover the obfuscators of the encryptions seen so far."""
        for public_key, plaintexts, ciphertexts in self._pending:
            n, n_squared, g = (public_key.n, public_key.n_squared,
                               public_key.g)
            for m, c in zip(plaintexts, ciphertexts):
                if g == n + 1:
                    g_m_inverse = (1 - m * n) % n_squared
                else:
                    g_m_inverse = pow(pow(g, m, n_squared), -1, n_squared)
                self._obfuscators.add(c * g_m_inverse % n_squared)
                self.encryptions += 1
        self._pending.clear()

    def distinct_rn_ratio(self) -> float:
        self.flush()
        if not self.encryptions:
            return 1.0
        return len(self._obfuscators) / self.encryptions


def instrument(tracer: Tracer, probe: LayerProbe, workload) -> None:
    """Wrap every layer's entry points the workload's objects use."""
    wrap = tracer.wrap
    engine_classes = {type(engine) for engine in workload.engines()}
    for cls in engine_classes:
        wrap(_defining_class(cls, "encrypt_batch"), "encrypt_batch",
             "crypto.encrypt", after=probe.after_encrypt)
        wrap(_defining_class(cls, "decrypt_batch"), "decrypt_batch",
             "crypto.decrypt", after=probe.counter("decrypt"))
        wrap(_defining_class(cls, "add_batch"), "add_batch",
             "crypto.add", after=probe.counter("add"))
        wrap(_defining_class(cls, "scalar_mul_batch"), "scalar_mul_batch",
             "crypto.scalar_mul", after=probe.counter("scalar_mul"))
    # Modular exponentiations: r^n of encryption, the CRT halves of
    # decryption, and the scalar-multiplication kernel.
    wrap(HeEngine, "_randomizer_power", "modexp", probe=True)
    wrap(Paillier, "raw_decrypt", "modexp", probe=True)
    wrap(GpuKernels, "mod_pow", "modexp", probe=True)

    wrap(BatchPacker, "pack", "quantization.pack",
         after=probe.counter("pack.values"))
    wrap(BatchPacker, "unpack", "quantization.unpack")
    wrap(PlainTensor, "encode", "tensor.encode")
    wrap(PlainTensor, "decode", "tensor.decode")
    wrap(CipherTensor, "materialize", "tensor.materialize")

    wrap(Channel, "send", "channel.send")
    for module in (shard, coordinator):
        wrap(module, "serialize_tensor", "serialization.serialize",
             after=probe.after_serialize)
        wrap(module, "deserialize_tensor", "serialization.deserialize")
    wrap(WriteAheadLog, "append", "wal.append")
    wrap(AsyncChannel, "submit", "eventloop.submit")
    wrap(AsyncChannel, "drain", "eventloop.drain")
    wrap(shard.ShardAggregator, "combine_round", "shard.leaf_combine")
    wrap(shard.RootCoordinator, "reduce_round", "shard.root_reduce")
    wrap(shard.ShardedAggregationService, "run_round", "shard.service")
    wrap(SecureAggregator, "aggregate", "aggregator.round")

    model = getattr(workload, "model", None)
    if model is not None:
        wrap(_defining_class(type(model), "run_epoch"), "run_epoch",
             "models.epoch")
    wrap(FederatedModel, "secure_transfer", "models.secure_transfer")


#: Per-layer metric -> unit.  Every traced run reports all of them; a
#: layer the workload does not exercise reports 0.
PER_LAYER_UNITS = {
    "setup.import_s": "s",
    "setup.keygen_s": "s",
    "setup.dataset_s": "s",
    "setup.runtime_s": "s",
}
for _op in ("encrypt", "decrypt", "add"):
    PER_LAYER_UNITS.update({f"crypto.{_op}.ops": "count",
                            f"crypto.{_op}.s": "s",
                            f"crypto.{_op}.us_per_op": "us"})
PER_LAYER_UNITS.update({
    "crypto.encrypt.distinct_rn_ratio": "ratio",
    "crypto.encrypt.modelled_s": "s",
    "crypto.decrypt.modelled_s": "s",
    "crypto.add.modelled_s": "s",
    "crypto.encrypt.measured_over_modelled": "ratio",
    "crypto.decrypt.measured_over_modelled": "ratio",
    "crypto.add.measured_over_modelled": "ratio",
    "crypto.modexp.s": "s",
    "crypto.modexp.share": "ratio",
    "quantization.pack.values": "count",
    "quantization.pack.s": "s",
    "quantization.unpack.s": "s",
    "tensor.encode.s": "s",
    "tensor.decode.s": "s",
    "tensor.materialize.s": "s",
    "tensor.engine_calls": "count",
    "channel.messages": "count",
    "channel.wire_bytes": "bytes",
    "channel.send.s": "s",
    "channel.retransmissions": "count",
    "channel.failed": "count",
    "serialization.frames": "count",
    "serialization.bytes": "bytes",
    "serialization.serialize.s": "s",
    "serialization.deserialize.s": "s",
    "wal.records": "count",
    "wal.bytes": "bytes",
    "wal.append.s": "s",
    "wal.retained_bytes": "bytes",
    "eventloop.submitted": "count",
    "eventloop.admitted": "count",
    "eventloop.rejected": "count",
    "eventloop.shed": "count",
    "eventloop.peak_depth": "count",
    "eventloop.submit.s": "s",
    "eventloop.drain.s": "s",
    "shard.shards": "count",
    "shard.leaf_combine.s": "s",
    "shard.root_reduce.s": "s",
    "shard.service.self_s": "s",
    "aggregator.round.self_s": "s",
    "models.epoch.self_s": "s",
    "models.secure_transfer.s": "s",
    "gpu.launches": "count",
    "ledger.he.modelled_s": "s",
    "ledger.comm.modelled_s": "s",
    "ledger.pipeline.modelled_s": "s",
    "round.unattributed_s": "s",
    "trace.spans": "count",
    "trace.round_s": "s",
    "trace.overhead_ratio": "ratio",
})


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(tracer: Tracer, probe: LayerProbe,
                  deltas: Dict[str, float], units: int,
                  unit_seconds: float) -> Dict[str, float]:
    """Per-layer metrics of the traced phase, per unit of work.

    Seconds are self seconds (span duration minus its child spans);
    ``crypto.*.s`` spans are leaves, and ``crypto.modexp.s`` is a probe
    total inside them.
    """
    rollup = tracer.rollup()
    per = 1.0 / units
    out: Dict[str, float] = {"trace.spans": len(tracer.spans) * per}
    for op in ("encrypt", "decrypt", "add"):
        seconds = rollup.self_time(f"crypto.{op}")
        ops = probe.ops[op]
        out[f"crypto.{op}.ops"] = ops * per
        out[f"crypto.{op}.s"] = seconds * per
        out[f"crypto.{op}.us_per_op"] = _ratio(seconds * 1e6, ops)
    out["crypto.encrypt.distinct_rn_ratio"] = probe.distinct_rn_ratio()
    for op in ("encrypt", "decrypt", "add"):
        modelled = deltas.get(f"modelled.{op}", 0.0)
        out[f"crypto.{op}.modelled_s"] = modelled * per
        out[f"crypto.{op}.measured_over_modelled"] = _ratio(
            rollup.seconds(f"crypto.{op}"), modelled)
    modexp = tracer.probe_seconds["modexp"]
    out["crypto.modexp.s"] = modexp * per
    out["crypto.modexp.share"] = _ratio(modexp, unit_seconds)

    out["quantization.pack.values"] = probe.ops["pack.values"] * per
    for name in ("quantization.pack", "quantization.unpack",
                 "tensor.encode", "tensor.decode", "tensor.materialize",
                 "channel.send", "serialization.serialize",
                 "serialization.deserialize", "wal.append",
                 "eventloop.submit", "eventloop.drain"):
        out[f"{name}.s"] = rollup.self_time(name) * per
    out["tensor.engine_calls"] = per * sum(
        rollup.calls_under("tensor.materialize", f"crypto.{op}")
        for op in ("add", "scalar_mul", "encrypt", "decrypt"))

    for name in ("channel.messages", "channel.wire_bytes",
                 "channel.retransmissions", "channel.failed",
                 "gpu.launches", "ledger.he.modelled_s",
                 "ledger.comm.modelled_s", "ledger.pipeline.modelled_s",
                 "eventloop.admitted", "eventloop.rejected",
                 "eventloop.shed"):
        out[name] = deltas.get(name, 0) * per
    out["serialization.frames"] = rollup.count(
        "serialization.serialize") * per
    out["serialization.bytes"] = probe.serialized_bytes * per
    out["wal.records"] = rollup.count("wal.append") * per
    out["eventloop.submitted"] = rollup.count("eventloop.submit") * per

    out["shard.shards"] = rollup.count("shard.leaf_combine") * per
    out["shard.leaf_combine.s"] = rollup.self_time("shard.leaf_combine") * per
    out["shard.root_reduce.s"] = rollup.self_time("shard.root_reduce") * per
    out["shard.service.self_s"] = rollup.self_time("shard.service") * per
    out["aggregator.round.self_s"] = rollup.self_time("aggregator.round") * per
    out["models.epoch.self_s"] = rollup.self_time("models.epoch") * per
    out["models.secure_transfer.s"] = rollup.self_time(
        "models.secure_transfer") * per
    out["round.unattributed_s"] = rollup.self_time("bench.unit") * per
    return out
