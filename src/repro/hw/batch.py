"""The FPGA estimation engine: batched, plain-float Eqs. 1-5.

Every search, sweep and shard run bottoms out in per-candidate latency /
resource estimation.  The scalar reference path
(:class:`repro.hw.analytical.DNNPerformanceModel`) rebuilds the workload,
the Tile-Arch accelerator and the model objects for every configuration;
:class:`BatchedDNNEstimator` splits the work in two:

* **Group statics.**  Everything that does not depend on the parallel
  factor (PF) — workload, tiling, IP instance order, per-layer MAC shares
  and reuse counts, per-segment DMA latencies, per-instance resource
  constants — is computed once per network structure
  (:attr:`DNNConfig.structure_key`) and stored as compact ``array`` rows.
* **The kernel.**  A plain-float loop scores each config from its group's
  rows and its PF; coefficients and the clock are per-call inputs, so a
  refit or a clock sweep never invalidates the statics.

**The store.**  Statics live in one process-wide store per ``(device, IP
library)``, shared by every estimator (each ``CoDesignFlow``, sweep cell
and worker thread) instead of being rebuilt per estimator.  The store is
a least-recently-used map of at most :data:`_STORE_CAPACITY` groups, so a
long-lived process (a shard worker, the job service) holds a bounded
amount; a lock guards every lookup, insert and eviction, and builds run
outside it (two threads may build the same group; the results are equal).
A store holds rows only — never a ``NetworkWorkload`` (which
:meth:`BatchedDNNEstimator.workload_for` keeps per estimator) nor NumPy
arrays.  The IP library is part of the store key by content, so a custom
library never reads statics built from another.

**Bit-exactness.**  ``estimate_batch(configs)[i]`` equals the scalar
``DNNPerformanceModel(...).estimate()`` of ``configs[i]`` to the last bit,
so journals, checkpoints and Pareto selections are byte-identical whichever
path scored them.  The kernel performs the scalar path's IEEE-754
operations on the same operands, in the same order:

* a layer's cycles are ``reuse * (share / (pf * lanes * eff) + depth)``,
  where ``pf * lanes`` equals, exactly, the integer product
  ``IPInstance.macs_per_cycle`` converts to float;
* cycles, segment latencies and instance resources are accumulated from
  ``0.0`` left to right in the scalar loop order (Eq. 4 segment order,
  workload order within a segment, IP build order) — never reassociated;
* the terms the kernel leaves out are exact ``+ 0.0`` additions of the
  scalar path (the DSP of non-DSP instances and of the Eq. 1 glue term,
  the LUT / FF / DSP of the BRAM-only buffer plan), and ``x + 0.0 == x``
  for every non-negative ``x``;
* the instance BRAM sum and each layer's tile share ``macs / reuse`` do
  not depend on the PF, so they are computed once per group with the
  scalar path's own operations;
* integer inputs (MACs, tile counts, PFs) stay far below ``2**53``, so
  their float conversions are exact in both paths.
"""

from __future__ import annotations

import math
import threading
import time
from array import array
from collections import OrderedDict
from itertools import islice
from typing import TYPE_CHECKING, Optional, Sequence

import repro.telemetry as telemetry
from repro.hw.analytical import (
    AnalyticalModelCoefficients,
    DEFAULT_COEFFICIENTS,
    PerformanceEstimate,
    bundle_layer_groups,
)
from repro.hw.device import FPGADevice
from repro.hw.ip import IPConfig
from repro.hw.ip_library import IPLibrary, default_ip_library
from repro.hw.memory import DRAMTrafficModel, plan_on_chip_buffers
from repro.hw.resource import ResourceVector
from repro.hw.tile_arch import CONTROL_OVERHEAD, build_bundle_hardware
from repro.hw.tiling import TileConfig, choose_tile_config
from repro.hw.workload import NetworkWorkload
from repro.nn.quantization import QuantizationScheme

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from repro.core.dnn_config import DNNConfig

#: Group statics one store keeps before evicting the least recently used.
#: A default ``codesign`` flow touches a few hundred groups per device, so
#: this keeps several flows' working sets warm at a few MiB per store.
_STORE_CAPACITY = 1024


class _GroupStatics:
    """PF-independent rows of one network structure (one group)."""

    __slots__ = (
        "layers", "seg_counts", "seg_transfer_ms", "lat_dm_ms",
        "instances", "inst_bram", "num_instances", "width_factor", "buffer_args",
    )

    def __init__(self, layers, seg_counts, seg_transfer_ms, lat_dm_ms, instances,
                 inst_bram, num_instances, width_factor, buffer_args) -> None:
        #: Per layer, segment-major: share, reuse, lanes per PF, eff, depth.
        self.layers: array = layers
        self.seg_counts: tuple = seg_counts
        self.seg_transfer_ms: array = seg_transfer_ms
        self.lat_dm_ms: float = lat_dm_ms
        #: Per IP instance, build order: base LUT, LUT/lane, base FF, FF/lane,
        #: MACs per DSP (0.0 for an instance without DSPs).
        self.instances: array = instances
        self.inst_bram: float = inst_bram
        self.num_instances: int = num_instances
        self.width_factor: float = width_factor
        #: Positional arguments of plan_on_chip_buffers, bar the weight group.
        self.buffer_args: tuple = buffer_args

    def buffer_bram_for(self, parallel_factor: int) -> float:
        """On-chip buffer BRAM at one PF (it sets the weight group)."""
        weight_group = max(int(math.sqrt(parallel_factor)), 4)
        return plan_on_chip_buffers(*self.buffer_args, weight_group=weight_group).total_bram


class _StaticsStore:
    """Bounded LRU of group statics for one ``(device, IP library)``."""

    def __init__(self, device: FPGADevice, library: IPLibrary) -> None:
        self.device = device
        self.library = library
        self.dram = DRAMTrafficModel(device)
        self._entries: OrderedDict[tuple, _GroupStatics] = OrderedDict()
        # Tile choices keyed by the workload aggregates choose_tile_config
        # reads; a handful of distinct keys per device, so left unbounded.
        self._tiles: dict[tuple, TileConfig] = {}
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key: tuple) -> Optional[_GroupStatics]:
        with self._lock:
            statics = self._entries.get(key)
            if statics is not None:
                self._entries.move_to_end(key)
            return statics

    def put(self, key: tuple, statics: _GroupStatics) -> None:
        with self._lock:
            self._entries[key] = statics
            self._entries.move_to_end(key)
            while len(self._entries) > _STORE_CAPACITY:
                self._entries.popitem(last=False)

    def _tile_for(self, workload: NetworkWorkload, key: tuple) -> TileConfig:
        """Memoized :func:`choose_tile_config`; ``key`` holds all it reads."""
        with self._lock:
            tile = self._tiles.get(key)
        if tile is None:
            tile = choose_tile_config(workload, self.device)
            with self._lock:
                self._tiles[key] = tile
        return tile

    def build(self, workload: NetworkWorkload) -> _GroupStatics:
        """The PF-independent rows of one workload on this store's device."""
        feature_bits, weight_bits = workload.feature_bits, workload.weight_bits
        max_channels = workload.max_channels
        compute = [l for l in workload.layers if l.is_compute]
        max_kernel = max((l.kernel for l in compute), default=3)
        max_in = max((l.in_channels for l in compute), default=max_channels)
        max_out = max((l.out_channels for l in compute), default=max_channels)
        # What plan_on_chip_buffers reads besides the tile (and so, with the
        # input shape, everything choose_tile_config reads).
        aggregates = (max_channels, feature_bits, weight_bits, max_kernel, max_in, max_out)
        tile = self._tile_for(workload, (workload.input_shape, *aggregates))
        quantization = QuantizationScheme(
            f"w{weight_bits}a{feature_bits}", weight_bits, feature_bits
        )
        # The PF of this placeholder hardware is irrelevant: only the
        # instance order, template parameters and BRAM sizing are read.
        bundle_hw = build_bundle_hardware(
            workload, IPConfig(parallel_factor=1, quantization=quantization), self.library
        )
        macs_per_dsp = float(quantization.macs_per_dsp)
        # instance_for depends on the layer kind and kernel only.
        rows_of: dict[tuple, tuple] = {}

        layers: list[float] = []
        seg_counts = []
        transfer_bytes: list[float] = []
        for segment in bundle_layer_groups(workload):
            params = 0
            for layer in segment:
                shape = (layer.kind, layer.kernel)
                template_rows = rows_of.get(shape)
                if template_rows is None:
                    template = bundle_hw.instance_for(layer).template
                    template_rows = rows_of[shape] = (
                        macs_per_dsp if template.uses_dsp else 1.0,
                        template.efficiency,
                        template.pipeline_depth,
                    )
                reuse = tile.num_tiles(layer.out_height, layer.out_width)
                layers += (layer.macs / reuse, reuse, *template_rows)
                params += layer.params
            seg_counts.append(len(segment))
            input_bytes = segment[0].input_elements * feature_bits / 8.0
            output_bytes = segment[-1].output_elements * feature_bits / 8.0
            transfer_bytes.append(input_bytes + output_bytes + params * weight_bits / 8.0)

        instances: list[float] = []
        inst_bram = 0.0
        for instance in bundle_hw.instances:
            template = instance.template
            instances += (
                template.base_lut,
                template.lut_per_lane,
                template.base_ff,
                template.ff_per_lane,
                macs_per_dsp if template.uses_dsp else 0.0,
            )
            inst_bram += (
                instance.weight_buffer_bram(max_in, max_out)
                + instance.line_buffer_bram(tile.tile_width, max_in)
            )
        width_scale = max(weight_bits, feature_bits) / 16.0

        return _GroupStatics(
            layers=array("d", layers),
            seg_counts=tuple(seg_counts),
            seg_transfer_ms=array("d", self.dram.transfer_latency_ms_many(
                transfer_bytes, [max(count, 1) for count in seg_counts]
            )),
            lat_dm_ms=(
                self.dram.inter_bundle_latency_ms(workload)
                + self.dram.input_output_latency_ms(workload)
            ),
            instances=array("d", instances),
            inst_bram=inst_bram,
            num_instances=len(bundle_hw.instances),
            width_factor=0.6 + 0.4 * width_scale,
            buffer_args=(tile.tile_height, tile.tile_width, *aggregates),
        )


_STORES: dict[tuple, _StaticsStore] = {}
_STORES_LOCK = threading.Lock()


def _store_for(device: FPGADevice, library: Optional[IPLibrary]) -> _StaticsStore:
    """The process-wide statics store of ``device`` under ``library``."""
    library = default_ip_library() if library is None else library
    key = (device, tuple(library.templates.items()))
    with _STORES_LOCK:
        store = _STORES.get(key)
        if store is None:
            store = _STORES[key] = _StaticsStore(device, library)
        return store


class BatchedDNNEstimator:
    """Config-at-a-time analytical estimator for one target device.

    Cheap to create: the group statics live in the shared store of its
    ``(device, library)``.  Coefficients and the clock are per-call inputs.
    """

    def __init__(self, device: FPGADevice, library: Optional[IPLibrary] = None) -> None:
        self.device = device
        self._store = _store_for(device, library)
        self._workloads: dict[tuple, NetworkWorkload] = {}

    def workload_for(self, config: "DNNConfig") -> NetworkWorkload:
        """The workload of ``config``, built once per group by this estimator."""
        key = config.structure_key
        workload = self._workloads.get(key)
        if workload is None:
            workload = self._workloads[key] = config.to_workload()
        return workload

    def _statics_for(self, config: "DNNConfig") -> _GroupStatics:
        key = config.structure_key
        statics = self._store.get(key)
        if statics is None:
            workload = self._workloads.get(key)
            if workload is None:
                workload = config.to_workload()
            statics = self._store.build(workload)
            self._store.put(key, statics)
        return statics

    def estimate_batch(
        self,
        configs: Sequence["DNNConfig"],
        coefficients: AnalyticalModelCoefficients = DEFAULT_COEFFICIENTS,
        clock_mhz: Optional[float] = None,
    ) -> list[PerformanceEstimate]:
        """Score every config; result ``i`` is bit-identical to the scalar path."""
        reg = telemetry.registry()
        if reg is None:
            return self._estimate_batch(configs, coefficients, clock_mhz)
        start = time.perf_counter()
        values = self._estimate_batch(configs, coefficients, clock_mhz)
        reg.counter("hw.estimate.count").inc(len(configs))
        reg.counter("hw.estimate.batch.calls").inc()
        reg.histogram("hw.estimate.batch.seconds").observe(time.perf_counter() - start)
        return values

    def _estimate_batch(
        self,
        configs: Sequence["DNNConfig"],
        coefficients: AnalyticalModelCoefficients,
        clock_mhz: Optional[float],
    ) -> list[PerformanceEstimate]:
        clock = clock_mhz if clock_mhz is not None else self.device.default_clock_mhz
        denom = clock * 1e3
        alpha, beta, phi = coefficients.alpha, coefficients.beta, coefficients.phi
        gamma_lut, gamma_ff = coefficients.gamma_lut, coefficients.gamma_ff
        gamma_bram = coefficients.gamma_bram
        ctl = CONTROL_OVERHEAD.scale(coefficients.ctl_gamma)
        results = []
        for config in configs:
            statics = self._statics_for(config)
            pf = config.parallel_factor

            # Eqs. 2-4: per-segment compute cycles (Eq. 3), then segment
            # latencies and the data-movement term, in the scalar order.
            rows = iter(statics.layers)
            layer_rows = zip(rows, rows, rows, rows, rows)
            latency = compute_ms = transfer_ms = 0.0
            for count, transfer in zip(statics.seg_counts, statics.seg_transfer_ms):
                cycles = 0.0
                for share, reuse, lanes, eff, depth in islice(layer_rows, count):
                    cycles += reuse * (share / (pf * lanes * eff) + depth)
                seg_compute = alpha * (cycles / denom)
                seg_transfer = beta * transfer
                latency += seg_compute + seg_transfer
                compute_ms += seg_compute
                transfer_ms += seg_transfer
            phi_dm = phi * statics.lat_dm_ms
            latency += phi_dm
            transfer_ms += phi_dm

            # Eqs. 1 & 5: instance resources in build order, then the glue,
            # buffer and control terms.
            rows = iter(statics.instances)
            factor = statics.width_factor
            lut = ff = dsp = 0.0
            for base_lut, per_lut, base_ff, per_ff, dsp_macs in zip(rows, rows, rows, rows, rows):
                lut += base_lut + per_lut * pf * factor
                ff += base_ff + per_ff * pf * factor
                if dsp_macs:
                    dsp += math.ceil(pf / dsp_macs)
            results.append(PerformanceEstimate(
                latency_ms=latency,
                resources=ResourceVector(
                    lut=lut + gamma_lut * statics.num_instances + ctl.lut,
                    ff=ff + gamma_ff * statics.num_instances + ctl.ff,
                    dsp=dsp + ctl.dsp,
                    bram=(
                        statics.inst_bram + gamma_bram
                        + statics.buffer_bram_for(pf) + ctl.bram
                    ),
                ),
                compute_ms=compute_ms,
                data_movement_ms=transfer_ms,
            ))
        return results


def estimate_batch(
    configs: Sequence["DNNConfig"],
    device: FPGADevice,
    coefficients: AnalyticalModelCoefficients = DEFAULT_COEFFICIENTS,
    clock_mhz: Optional[float] = None,
) -> list[PerformanceEstimate]:
    """One-shot batched estimation on ``device`` with the default IP library.

    Shares the process-wide group statics with every other estimator of the
    same device, so repeated calls stay warm.
    """
    return BatchedDNNEstimator(device).estimate_batch(
        configs, coefficients=coefficients, clock_mhz=clock_mhz
    )
