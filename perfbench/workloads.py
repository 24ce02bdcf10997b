"""The benchmark's workloads: inputs, the timed unit of work, output checks.

Every workload runs the FLBooster system with its default HE backend and
packing codec, fresh randomizers (``randomizer_pool_size=0``) and no
faults.  The workload seed derives every input: runtime seeds (and so the
keys), gradient vectors and the dataset.

A workload is driven in three steps per unit of work: :meth:`prepare`
(untimed: inputs for the next unit), :meth:`run` (the timed call into the
program) and :meth:`check` (untimed: is the output right?).
"""

from __future__ import annotations

import math
import time
from typing import Dict, List, Optional

import numpy as np

from repro.experiments.harness import build_model, scaled_dataset
from repro.federation.runtime import (
    FLBOOSTER_SYSTEM,
    FederationRuntime,
    cached_keypair,
)
from repro.models.base import FederatedModel

_clock = time.perf_counter

#: Cold set-ups per run (this process plus fresh interpreters);
#: ``setup_s`` reports their median.
SETUP_REPEATS = 5

#: Float64 slack per summand on top of the quantization bound.
_FLOAT_SLACK = 8 * np.finfo(np.float64).eps


def derived_seed(seed: int, *path: int) -> int:
    """A runtime seed drawn from the workload seed along ``path``."""
    rng = np.random.default_rng([seed % (1 << 32), *path])
    return int(rng.integers(1, 1 << 31))


def quantization_bound(scheme, summands: int, scale: float = 1.0) -> float:
    """Largest decode error the scheme allows for ``summands`` encodings.

    Each encoding rounds to the nearest of the scheme's levels, so it is
    off by at most half a step; a sum of ``summands`` encodings by at
    most ``summands`` half steps.
    """
    half_step = scheme.quantization_step / 2
    return summands * (half_step + _FLOAT_SLACK * scheme.alpha) * scale


class Workload:
    """Common bookkeeping: output-error statistics and counters."""

    name = ""
    why = ""
    unit = "round"
    #: Units a run makes even when ``--seconds`` has passed.
    min_units = 3

    def __init__(self, seed: int):
        self.seed = seed
        self.runtime: Optional[FederationRuntime] = None
        #: Per checked unit: largest decode error, mean squared error.
        self.unit_err_max: List[float] = []
        self.unit_mse: List[float] = []
        self._worst = self._sq_err = 0.0
        self._err_values = 0
        self.values_done = 0
        self.failure: Optional[str] = None

    # -- set-up --------------------------------------------------------

    def setup(self, rep: int) -> Dict[str, float]:
        """Build everything with set-up ``rep``'s seeds.

        Returns seconds per set-up phase.  A process sets up once: the
        timed run uses set-up 0, and the other set-ups run in their own
        fresh interpreters only to be timed.
        """
        raise NotImplementedError

    # -- the unit of work ----------------------------------------------

    def prepare(self, index: int) -> None:
        raise NotImplementedError

    def run(self) -> None:
        raise NotImplementedError

    def check(self) -> bool:
        """Check the last unit's output; records why it failed."""
        self.failure = None
        self._worst = self._sq_err = 0.0
        self._err_values = 0
        ok = self._check()
        if self._err_values:
            self.unit_err_max.append(self._worst)
            self.unit_mse.append(self._sq_err / self._err_values)
        return ok

    def _check(self) -> bool:
        raise NotImplementedError

    def finish(self) -> None:
        """Undo anything :meth:`setup` patched."""

    # -- reporting -----------------------------------------------------

    def engines(self) -> list:
        rt = self.runtime
        return [rt.client_engine, rt.silent_engine, rt.server_engine]

    def counters(self) -> Dict[str, float]:
        """Cumulative counters of the live objects (deltas are per unit)."""
        rt = self.runtime
        stats = rt.channel.stats
        out = {
            "channel.messages": stats.messages,
            "channel.wire_bytes": stats.wire_bytes,
            "channel.retransmissions": stats.retransmissions,
            "channel.failed": stats.failed_messages,
            "ledger.he.modelled_s": rt.ledger.seconds("he."),
            "ledger.comm.modelled_s": rt.ledger.seconds("comm."),
            "ledger.pipeline.modelled_s": rt.ledger.seconds("pipeline."),
        }
        devices = {id(e.kernels.device): e.kernels.device
                   for e in self.engines() if hasattr(e, "kernels")}
        out["gpu.launches"] = sum(len(d.launches) for d in devices.values())
        # Modelled seconds of *every* HE call, charged or silent, so the
        # measured/modelled ratio compares the same operations.
        ledgers = {id(e.ledger): e.ledger for e in self.engines()}
        for op in ("encrypt", "decrypt", "add"):
            out[f"modelled.{op}"] = sum(
                ledger.seconds(f"he.{op}") for ledger in ledgers.values())
        return out

    def properties(self) -> Dict[str, object]:
        """The workload property record printed with every result."""
        rt = self.runtime
        return {
            "key_bits": rt.key_bits,
            "physical_key_bits": rt.physical_key_bits,
            "packing_capacity": rt.aggregator.packer.capacity,
            "shards": 0,
            "wal_records_per_round": 0,
            "wal_bytes_per_round": 0,
        }

    def _record_error(self, decoded, expected, bound: float) -> bool:
        decoded = np.asarray(decoded, dtype=np.float64)
        expected = np.asarray(expected, dtype=np.float64)
        if decoded.shape != expected.shape:
            self.failure = (f"decoded shape {decoded.shape} != "
                            f"{expected.shape}")
            return False
        err = np.abs(decoded - expected)
        if not np.all(np.isfinite(err)):
            self.failure = "decoded aggregate is not finite"
            return False
        worst = float(err.max()) if err.size else 0.0
        self._worst = max(self._worst, worst)
        self._sq_err += float(np.sum(err * err))
        self._err_values += err.size
        if worst > bound:
            self.failure = (f"decode error {worst:.3e} exceeds the "
                            f"quantization bound {bound:.3e}")
            return False
        return True

    def agg_err_max(self) -> float:
        """Median over units of each unit's largest decode error."""
        return _median(self.unit_err_max)

    def train_loss(self) -> float:
        """Median over units of the mean squared decode error.

        The aggregation workloads train no model; this is the loss of
        the aggregate they deliver.
        """
        return _median(self.unit_mse)


def _median(values: List[float]) -> float:
    return float(np.median(values)) if values else float("nan")


class AggregationWorkload(Workload):
    """Fresh client gradient vectors every round, summed securely."""

    clients = 0
    values = 0
    key_bits = 0
    physical_key_bits = 0

    def __init__(self, seed: int):
        super().__init__(seed)
        self.vectors: List[np.ndarray] = []
        self.result = None

    def build(self, rt_seed: int) -> None:
        """Construct the runtime (and anything over it) on ``self``."""
        self.runtime = FederationRuntime(
            FLBOOSTER_SYSTEM, num_clients=self.clients,
            key_bits=self.key_bits,
            physical_key_bits=self.physical_key_bits, seed=rt_seed,
            randomizer_pool_size=0)

    def setup(self, rep: int) -> Dict[str, float]:
        rt_seed = derived_seed(self.seed, 0, rep)
        phases = {}
        start = _clock()
        cached_keypair(self.physical_key_bits, seed=rt_seed)
        phases["keygen"] = _clock() - start
        start = _clock()
        self.build(rt_seed)
        phases["runtime"] = _clock() - start
        start = _clock()
        self.vectors = self.make_vectors(0)
        phases["dataset"] = _clock() - start
        return phases

    def make_vectors(self, index: int) -> List[np.ndarray]:
        rng = np.random.default_rng([self.seed % (1 << 32), 2, index])
        # Strictly inside [-alpha, alpha]: the bound assumes no clipping.
        alpha = 0.999 * self.runtime.alpha
        block = rng.uniform(-alpha, alpha, size=(self.clients, self.values))
        return list(block)

    def prepare(self, index: int) -> None:
        self.vectors = self.make_vectors(index)
        self.result = None

    def check_sum(self, summands: int) -> bool:
        if self.result is None:
            self.failure = "round produced no aggregate"
            return False
        scheme = self.runtime.aggregator.scheme
        expected = np.sum(np.stack(self.vectors), axis=0)
        ok = self._record_error(self.result, expected,
                                quantization_bound(scheme, summands))
        if ok:
            self.values_done += self.clients * self.values
        return ok

    def properties(self) -> Dict[str, object]:
        props = super().properties()
        props.update({
            "clients": self.clients,
            "values_per_client": self.values,
            "ciphertexts_per_client":
                self.runtime.aggregator.packer.words_needed(self.values),
        })
        return props


class FlatWorkload(AggregationWorkload):
    name = "flat-1024"
    why = ("crypto-bound flat round: 4 clients x 1000 values at 1024-bit "
           "keys, where modexp (mostly encryption's r^n) is ~95% of time")
    clients = 4
    values = 1000
    key_bits = physical_key_bits = 1024

    def run(self) -> None:
        self.result = self.runtime.aggregator.aggregate(self.vectors)

    def _check(self) -> bool:
        last = self.runtime.aggregator.last_round
        if last is None or last.dropped or last.summands != self.clients:
            self.failure = f"round dropped parties: {last}"
            return False
        return self.check_sum(self.clients)


class ShardedWorkload(AggregationWorkload):
    name = "sharded-256"
    why = ("coordination-bound round: 256 clients x 16 values over 16 "
           "WAL-journaled shards at 256/128-bit keys, where admission, "
           "WAL, frames and packing outweigh modexp")
    clients = 256
    values = 16
    key_bits = 256
    physical_key_bits = 128
    #: Rounds one service lives before it is rebuilt.  Its WALs are
    #: never truncated, so this pins the log's share of peak RSS to 40
    #: rounds whatever the round rate.
    service_rounds = 40

    def __init__(self, seed: int):
        super().__init__(seed)
        self.service = None
        self.service_age = 0
        self.wal_rounds = 0
        self.wal_records = 0
        self.wal_bytes = 0
        self.wal_retained_max = 0

    def build(self, rt_seed: int) -> None:
        super().build(rt_seed)
        self.service = self.runtime.sharded_service()

    def _wals(self):
        return [leaf.wal for leaf in self.service.leaves.values()] + [
            self.service.root.wal]

    def retire_service(self) -> None:
        """Fold the live service's WAL totals into the run's."""
        if not self.service_age:
            return
        retained = sum(len(wal.image()) for wal in self._wals())
        self.wal_records += sum(len(wal) for wal in self._wals())
        self.wal_bytes += retained
        self.wal_rounds += self.service_age
        self.wal_retained_max = max(self.wal_retained_max, retained)

    def prepare(self, index: int) -> None:
        if self.service_age >= self.service_rounds:
            self.retire_service()
            self.service = self.runtime.sharded_service()
            self.service_age = 0
            # The simulated device keeps a launch log; start it afresh
            # with the service so neither grows with the round count.
            for engine in self.engines():
                engine.kernels.device.reset()
        super().prepare(index)

    def run(self) -> None:
        self.service_age += 1
        self.result = self.service.run_round(self.vectors)

    def _check(self) -> bool:
        report = self.service.last_round
        if report is None or report.dropped or \
                sorted(report.survivors) != sorted(report.cohort) or \
                len(report.cohort) != self.clients:
            self.failure = "a cohort member is not a survivor"
            return False
        return self.check_sum(report.summands)

    def counters(self) -> Dict[str, float]:
        out = super().counters()
        stats = self.service.async_channel.stats.values()
        out["eventloop.admitted"] = sum(s.accepted for s in stats)
        out["eventloop.rejected"] = sum(s.rejected for s in stats)
        out["eventloop.shed"] = sum(s.shed for s in stats)
        out["eventloop.peak_depth"] = max(
            (s.peak_depth for s in stats), default=0)
        return out

    def finish(self) -> None:
        self.retire_service()
        self.service_age = 0

    def properties(self) -> Dict[str, object]:
        props = super().properties()
        rounds = max(self.wal_rounds, 1)
        props.update({
            "shards": len(self.service.leaves),
            "wal_records_per_round": self.wal_records / rounds,
            "wal_bytes_per_round": self.wal_bytes / rounds,
            "wal_retained_bytes_max": self.wal_retained_max,
            "service_rounds": self.service_rounds,
        })
        return props


class SecureBoostWorkload(Workload):
    name = "train-sbt-1024"
    why = ("Hetero SecureBoost epochs on scaled RCV1 at 1024-bit keys: "
           "decryption-heavy crypto use and the only guard on model "
           "quality")
    unit = "epoch"
    key_bits = 1024
    #: Epochs of one training; ``train_loss`` is the loss after them.
    epochs = 3
    #: Trainings, each on its own seed-derived dataset, that
    #: ``train_loss`` averages: one dataset's loss varies with its
    #: labels far more than the HE path moves it.
    trainings = 3
    min_units = epochs * trainings

    def __init__(self, seed: int):
        super().__init__(seed)
        self.model = None
        self.loss = float("nan")
        self.final_losses: List[float] = []
        self._transfers: list = []
        self._original = None

    def _model(self, training: int):
        """Training ``training``'s model over its own dataset."""
        data_seed = derived_seed(self.seed, 1, training)
        dataset = scaled_dataset("RCV1", seed=data_seed)
        return build_model("Hetero SBT", dataset, seed=data_seed)

    def setup(self, rep: int) -> Dict[str, float]:
        rt_seed = derived_seed(self.seed, 0, rep)
        phases = {}
        start = _clock()
        cached_keypair(self.key_bits, seed=rt_seed)
        phases["keygen"] = _clock() - start
        start = _clock()
        model = self._model(rep)
        phases["dataset"] = _clock() - start
        start = _clock()
        runtime = FederationRuntime(
            FLBOOSTER_SYSTEM, num_clients=4, key_bits=self.key_bits,
            seed=rt_seed, randomizer_pool_size=0)
        phases["runtime"] = _clock() - start
        self.runtime, self.model = runtime, model
        self._install_transfer_check()
        return phases

    def _install_transfer_check(self) -> None:
        """Record every secure transfer's input and output for checking."""
        original = FederatedModel.__dict__["secure_transfer"]
        transfers = self._transfers
        inner = original.__func__

        def checked_transfer(runtime, values, sender, receiver, tag,
                             scale=1.0):
            out = inner(runtime, values, sender, receiver, tag, scale=scale)
            transfers.append((np.array(values, dtype=np.float64),
                              scale, np.array(out, dtype=np.float64)))
            return out

        self._original = original
        FederatedModel.secure_transfer = staticmethod(checked_transfer)

    def finish(self) -> None:
        if self._original is not None:
            FederatedModel.secure_transfer = self._original
            self._original = None

    def prepare(self, index: int) -> None:
        if index and index % self.epochs == 0:
            self.model = self._model(index // self.epochs)
        self._transfers.clear()
        self.loss = float("nan")

    def run(self) -> None:
        self.loss = self.model.run_epoch(self.runtime)

    def _check(self) -> bool:
        scheme = self.runtime.aggregator.scheme
        if not self._transfers:
            self.failure = "epoch made no secure transfer"
            return False
        for values, scale, out in self._transfers:
            bound = quantization_bound(scheme, 1, scale=scale)
            if not self._record_error(out, values, bound):
                return False
            self.values_done += values.size
        if not math.isfinite(self.loss):
            self.failure = f"training loss {self.loss} is not finite"
            return False
        if len(self.model.trees) == self.epochs:
            self.final_losses.append(self.loss)
        return True

    def train_loss(self) -> float:
        """Mean loss after ``epochs`` epochs of the first trainings."""
        losses = self.final_losses[:self.trainings]
        return sum(losses) / len(losses) if losses else float("nan")

    def properties(self) -> Dict[str, object]:
        props = super().properties()
        epochs = max(len(self.unit_mse), 1)
        dataset = self.model.dataset
        props.update({
            "parties": 2,
            "instances": dataset.num_instances,
            "features": dataset.num_features,
            "values_per_epoch": self.values_done / epochs,
            "ciphertexts_per_epoch":
                self.runtime.channel.stats.ciphertexts / epochs,
            "epochs_per_training": self.epochs,
            "trainings_averaged": self.trainings,
        })
        return props


WORKLOADS = {cls.name: cls for cls in (FlatWorkload, ShardedWorkload,
                                       SecureBoostWorkload)}
