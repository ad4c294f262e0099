"""Jetson Orin device profiles (power modes) for the latency/energy model.

The paper measures LD-BN-ADAPT on an Nvidia Jetson AGX Orin across its
power modes (Fig. 3).  Without the physical board, we model each power
mode as a :class:`DeviceProfile`: peak FP32 throughput, DRAM bandwidth,
achievable efficiency fractions and per-kernel launch overhead.  The
numbers derive from Orin's public specifications (2048-core Ampere GPU,
up to 1.3 GHz, LPDDR5 at 204.8 GB/s) with per-mode clock scaling taken
from the nvpmodel tables, and the efficiency fractions calibrated once so
the *feasibility pattern* of Fig. 3 is reproduced:

* R-18 at 60 W meets the 33.3 ms (30 FPS) deadline;
* R-18 at 60 W / R-18 at 50 W / R-34 at 60 W meet 55.5 ms (18 FPS);
* every other (model, mode) pair misses both.

We claim fidelity of *orderings and feasibility*, not of absolute
milliseconds — see DESIGN.md section 2.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Union


@dataclass(frozen=True)
class DeviceProfile:
    """One power mode of an edge device.

    Attributes
    ----------
    name:
        Human-readable mode name (e.g. ``"orin-60w"``).
    power_w:
        Mode power budget in watts (used for energy estimates).
    peak_flops:
        Peak FP32 throughput at this mode's GPU clock (FLOP/s).
    mem_bandwidth:
        Peak DRAM bandwidth at this mode's EMC clock (bytes/s).
    efficiency_infer:
        Fraction of peak achievable by inference kernels (im2col GEMMs
        reach 40-50 % of peak on Ampere for these layer sizes).
    efficiency_train:
        Fraction of peak achievable by training kernels (lower: smaller
        effective GEMMs in weight-gradient computation, more traffic).
    kernel_overhead_s:
        Fixed launch/framework overhead per layer invocation.
    """

    name: str
    power_w: float
    peak_flops: float
    mem_bandwidth: float
    efficiency_infer: float = 0.70
    efficiency_train: float = 0.60
    kernel_overhead_s: float = 20e-6

    @property
    def effective_flops_infer(self) -> float:
        return self.peak_flops * self.efficiency_infer

    @property
    def effective_flops_train(self) -> float:
        return self.peak_flops * self.efficiency_train

    def scaled(
        self,
        clock_factor: float,
        bw_factor: float,
        name: str,
        power_w: float,
    ) -> "DeviceProfile":
        """Derive a throttled profile from this one."""
        return DeviceProfile(
            name=name,
            power_w=power_w,
            peak_flops=self.peak_flops * clock_factor,
            mem_bandwidth=self.mem_bandwidth * bw_factor,
            efficiency_infer=self.efficiency_infer,
            efficiency_train=self.efficiency_train,
            kernel_overhead_s=self.kernel_overhead_s,
        )


# Orin AGX at MAXN: 2048 CUDA cores x 2 FLOP x 1.3 GHz = 5.325 TFLOPS FP32.
_ORIN_MAXN = DeviceProfile(
    name="orin-60w",
    power_w=60.0,
    peak_flops=2048 * 2 * 1.3e9,
    mem_bandwidth=204.8e9,
)

# Per-mode GPU clock scaling (approximate nvpmodel tables: 1.3 GHz MAXN,
# ~975 MHz @50W, ~624 MHz + reduced EMC @30W, ~420 MHz @15W).
ORIN_POWER_MODES: Dict[str, DeviceProfile] = {
    "orin-60w": _ORIN_MAXN,
    "orin-50w": _ORIN_MAXN.scaled(0.75, 1.00, "orin-50w", 50.0),
    "orin-30w": _ORIN_MAXN.scaled(0.42, 0.66, "orin-30w", 30.0),
    "orin-15w": _ORIN_MAXN.scaled(0.22, 0.50, "orin-15w", 15.0),
}

# Fig. 3's x-axis order (lowest to highest power)
POWER_MODE_ORDER: List[str] = ["orin-15w", "orin-30w", "orin-50w", "orin-60w"]


def get_power_mode(name: str) -> DeviceProfile:
    """Look up an Orin power-mode profile ("orin-15w" ... "orin-60w")."""
    key = name.lower()
    if key not in ORIN_POWER_MODES:
        raise KeyError(
            f"unknown power mode {name!r}; available: {sorted(ORIN_POWER_MODES)}"
        )
    return ORIN_POWER_MODES[key]


def build_device_pool(modes: Union[str, Sequence[str]]) -> List[DeviceProfile]:
    """Build a (possibly heterogeneous) device pool from power-mode names.

    ``modes`` is a comma-separated string or a sequence of entries, each
    ``"<mode>"`` or ``"<mode>:<count>"``::

        build_device_pool("orin-60w:2,orin-30w")
        # -> [orin-60w, orin-60w, orin-30w]

    The fleet's device-pool serving (``repro.serve``) prices every
    stream per device, so mixed power modes in one pool are first-class:
    the placement policies and the migration planner see each device's
    own roofline costs.
    """
    if isinstance(modes, str):
        entries = [entry.strip() for entry in modes.split(",")]
    else:
        entries = [str(entry).strip() for entry in modes]
    entries = [entry for entry in entries if entry]
    if not entries:
        raise ValueError("device pool needs at least one power-mode entry")
    pool: List[DeviceProfile] = []
    for entry in entries:
        name, _, count_str = entry.partition(":")
        count = 1
        if count_str:
            try:
                count = int(count_str)
            except ValueError:
                raise ValueError(
                    f"bad device-pool entry {entry!r}: count must be an integer"
                ) from None
        if count < 1:
            raise ValueError(f"bad device-pool entry {entry!r}: count must be >= 1")
        pool.extend([get_power_mode(name)] * count)
    return pool
