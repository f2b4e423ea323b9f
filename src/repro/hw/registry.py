"""The single target/device dispatch point of the reproduction.

EDD's formulation retargets to a new device by swapping the ``Perf_loss`` /
``RES`` model and the quantisation menu (Secs. 4-6); this module makes that
swap a *registration* instead of an edit to every call site.  Each hardware
target registers a :class:`TargetSpec` via the :func:`register_target`
decorator, bundling

* the :class:`~repro.nas.quantization.QuantizationConfig` factory (the
  per-device bit-width menu and Phi sharing mode),
* the differentiable :class:`~repro.hw.base.HardwareModel` factory used by
  the co-search,
* the named devices the target can deploy to (see :data:`DEVICES`) and its
  default one,
* the deployable weight bit-widths (used to clamp estimate requests with an
  explicit note instead of silently),
* the analytic estimator that maps a complete
  :class:`~repro.nas.arch_spec.ArchSpec` to a latency/throughput number, and
* the deployment-plan flow (``repro.hw.report``) if the target has one.

Everything else in the repo — the co-search, the CLI, the baselines, the
batch ``repro.api`` facade — resolves target strings here and only here, so
adding a device is one ``@register_target`` block plus a
:func:`register_device` call.  Unknown names raise a ``ValueError`` listing
the known ones.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

from repro.hw.accel import BitSerialAccelModel, bit_serial_latency_ms
from repro.hw.analytic import (
    UnsupportedNetworkError,
    fpga_pipelined_report,
    fpga_recursive_latency_ms,
    gpu_latency_from_layers_ms,
    gpu_layer_latencies_us,
)
from repro.hw.base import HardwareModel
from repro.hw.device import (
    BIT_SERIAL_EDGE,
    GTX_1080TI,
    P100,
    TITAN_RTX,
    ZC706,
    ZCU102,
    AccelDevice,
    FPGADevice,
    GPUDevice,
)
from repro.hw.energy import gpu_energy_from_layers_mj
from repro.hw.fpga import FPGAModel
from repro.hw.gpu import GPUModel
from repro.nas.quantization import QuantizationConfig

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (core imports us)
    from repro.core.config import EDDConfig
    from repro.nas.arch_spec import ArchSpec
    from repro.nas.space import SearchSpaceConfig

Device = GPUDevice | FPGADevice | AccelDevice


def _norm(name: str) -> str:
    """Canonical registry key: lower-case, dashes for spaces/underscores."""
    return name.strip().lower().replace("_", "-").replace(" ", "-")


class Registry:
    """Name -> item store with duplicate rejection and helpful lookup errors."""

    def __init__(self, kind: str) -> None:
        self.kind = kind
        self._items: dict[str, Any] = {}
        self._display: dict[str, str] = {}  # normalised key -> registered name

    def register(self, name: str, item: Any) -> Any:
        key = _norm(name)
        if key in self._items:
            raise ValueError(f"{self.kind} {name!r} is already registered")
        self._items[key] = item
        self._display[key] = name
        return item

    def get(self, name: str) -> Any:
        key = _norm(name)
        if key not in self._items:
            raise ValueError(
                f"unknown {self.kind} {name!r}, known: {self.names()}"
            )
        return self._items[key]

    def names(self) -> list[str]:
        """The registered (display) names, e.g. ``fpga_recursive``."""
        return sorted(self._display.values())

    def items(self) -> list[tuple[str, Any]]:
        return sorted(
            (self._display[key], item) for key, item in self._items.items()
        )

    def __contains__(self, name: str) -> bool:
        return _norm(name) in self._items

    def __iter__(self) -> Iterator[str]:
        return iter(self.names())

    def __len__(self) -> int:
        return len(self._items)


@dataclass(frozen=True)
class EstimateOutcome:
    """Result of one analytic target estimate for a complete network."""

    metric: str                      # "latency_ms" | "throughput_fps"
    value: float | None
    supported: bool = True
    note: str = ""
    extras: dict[str, float] = field(default_factory=dict)


@dataclass(frozen=True)
class TargetSpec:
    """Everything the rest of the repo needs to know about one target."""

    name: str
    description: str
    quantization: Callable[[], QuantizationConfig]
    model_factory: Callable[..., HardwareModel]
    default_device: str
    devices: tuple[str, ...]
    deploy_bits: tuple[int, ...]
    default_deploy_bits: int
    default_resource_fraction: float = 1.0
    plan_flow: str | None = None
    estimator: Callable[["ArchSpec", Device, int], EstimateOutcome] | None = None

    def quant(self) -> QuantizationConfig:
        """The target's quantisation menu (bit-widths + Phi sharing)."""
        return self.quantization()

    def clamp_bits(self, bits: int) -> tuple[int, bool]:
        """Map a requested deploy bit-width onto the target's menu.

        Returns ``(effective_bits, clamped)``: the widest supported width not
        exceeding the request (or the narrowest supported width if the
        request undershoots the whole menu), and whether it differs from the
        request.  Callers surface ``clamped`` to the user — never silently.
        """
        if bits in self.deploy_bits:
            return bits, False
        below = [b for b in self.deploy_bits if b <= bits]
        effective = max(below) if below else min(self.deploy_bits)
        return effective, True

    def clamp_note(self, requested: int, effective: int) -> str:
        """The user-facing sentence explaining a bit-width clamp."""
        menu = "/".join(str(b) for b in self.deploy_bits)
        return (
            f"requested {requested}-bit clamped to {effective}-bit "
            f"({self.name} supports {menu})"
        )

    def resolve_device(self, device: str | Device | None = None) -> Device:
        """Default / named / already-constructed device -> device object."""
        if device is None:
            return DEVICES.get(self.default_device)
        if isinstance(device, str):
            key = _norm(device)
            allowed = tuple(_norm(d) for d in self.devices)
            if key not in allowed:
                raise ValueError(
                    f"device {device!r} is not registered for target "
                    f"{self.name!r}, known: {sorted(allowed)}"
                )
            return DEVICES.get(key)
        return device

    def build_model(
        self,
        space: "SearchSpaceConfig",
        config: "EDDConfig",
        device: str | Device | None = None,
    ) -> HardwareModel:
        """Instantiate the differentiable device model for the co-search."""
        return self.model_factory(
            space, self.quant(), config, self.resolve_device(device)
        )

    def estimate(
        self, spec: "ArchSpec", device: str | Device | None, bits: int
    ) -> EstimateOutcome:
        """Analytic estimate of ``spec`` deployed on this target."""
        if self.estimator is None:
            return EstimateOutcome(
                metric="latency_ms", value=None, supported=False,
                note=f"target {self.name!r} has no analytic estimator",
            )
        return self.estimator(spec, self.resolve_device(device), bits)


#: Named devices — CLI/configs refer to hardware by these strings.
DEVICES = Registry("device")

#: Registered hardware targets (one TargetSpec each).
TARGETS = Registry("target")


def register_device(name: str, device: Device) -> Device:
    """Add a named device; returns it so the call can double as assignment."""
    return DEVICES.register(name, device)


def register_target(**kwargs: Any) -> Callable[[Callable[..., HardwareModel]],
                                               Callable[..., HardwareModel]]:
    """Decorator: register the decorated hardware-model factory as a target.

    The decorated callable receives ``(space, quant, config, device)`` and
    returns a :class:`HardwareModel`; every other field of
    :class:`TargetSpec` is passed as a keyword argument to the decorator.
    """

    def wrap(factory: Callable[..., HardwareModel]) -> Callable[..., HardwareModel]:
        spec = TargetSpec(model_factory=factory, **kwargs)
        for dev in (spec.default_device, *spec.devices):
            if dev not in DEVICES:
                raise ValueError(
                    f"target {spec.name!r} references unregistered device "
                    f"{dev!r}, known: {DEVICES.names()}"
                )
        TARGETS.register(spec.name, spec)
        return factory

    return wrap


# -- module-level conveniences (the names the rest of the repo uses) ----------
def get_target(name: str) -> TargetSpec:
    """Look up a registered target; raises listing known names otherwise."""
    return TARGETS.get(name)


def get_device(name: str) -> Device:
    """Look up a registered device by its canonical name (case-insensitive)."""
    return DEVICES.get(name)


def target_names() -> list[str]:
    """Sorted names of every registered hardware target."""
    return TARGETS.names()


def device_names() -> list[str]:
    """Sorted names of every registered device."""
    return DEVICES.names()


def quantization_for_target(target: str) -> QuantizationConfig:
    """The per-device quantisation menus of Sec. 6, resolved via the registry."""
    return get_target(target).quant()


def build_hardware_model(
    space: "SearchSpaceConfig",
    config: "EDDConfig",
    device: str | Device | None = None,
) -> HardwareModel:
    """Instantiate the device model matching ``config.target``.

    The canonical build site: unknown targets raise here with the list of
    registered names, and the device defaults to the target's registered
    default board/GPU.
    """
    return get_target(config.target).build_model(space, config, device=device)


# -- the paper's devices ------------------------------------------------------
register_device("titan-rtx", TITAN_RTX)
register_device("gtx-1080ti", GTX_1080TI)
register_device("p100", P100)
register_device("zcu102", ZCU102)
register_device("zc706", ZC706)
register_device("bit-serial-edge", BIT_SERIAL_EDGE)


# -- the paper's targets ------------------------------------------------------
def _estimate_gpu(spec: "ArchSpec", device: Device, bits: int) -> EstimateOutcome:
    layer_us = gpu_layer_latencies_us(spec, device, weight_bits=bits)
    return EstimateOutcome(
        metric="latency_ms",
        value=gpu_latency_from_layers_ms(layer_us, device),
        extras={"energy_mj": gpu_energy_from_layers_mj(spec.layers(), layer_us, device)},
    )


def _estimate_fpga_recursive(
    spec: "ArchSpec", device: Device, bits: int
) -> EstimateOutcome:
    try:
        value = fpga_recursive_latency_ms(spec, device, weight_bits=bits)
    except UnsupportedNetworkError as err:
        return EstimateOutcome(
            metric="latency_ms", value=None, supported=False, note=str(err)
        )
    return EstimateOutcome(metric="latency_ms", value=value)


def _estimate_fpga_pipelined(
    spec: "ArchSpec", device: Device, bits: int
) -> EstimateOutcome:
    try:
        report = fpga_pipelined_report(spec, device, weight_bits=bits)
    except UnsupportedNetworkError as err:
        return EstimateOutcome(
            metric="throughput_fps", value=None, supported=False, note=str(err)
        )
    return EstimateOutcome(
        metric="throughput_fps",
        value=report.fps,
        extras={
            "bottleneck_index": float(report.bottleneck_index),
            "dsp_allocated": float(sum(report.allocations)),
        },
        note=f"bottleneck {report.bottleneck_kind}{report.bottleneck_kernel}",
    )


def _estimate_accel(spec: "ArchSpec", device: Device, bits: int) -> EstimateOutcome:
    return EstimateOutcome(
        metric="latency_ms",
        value=bit_serial_latency_ms(spec, device, weight_bits=bits),
    )


@register_target(
    name="gpu",
    description="GPU latency target (Sec. 4.2): global precision via TensorRT",
    quantization=QuantizationConfig.gpu,
    default_device="titan-rtx",
    devices=("titan-rtx", "gtx-1080ti", "p100"),
    deploy_bits=(8, 16, 32),
    default_deploy_bits=32,
    default_resource_fraction=1.0,
    plan_flow="gpu",
    estimator=_estimate_gpu,
)
def _build_gpu(space, quant, config, device) -> HardwareModel:
    return GPUModel(space, quant, device=device)


@register_target(
    name="fpga_recursive",
    description="Recursive FPGA accelerator (CHaiDNN-like, Sec. 4.1): "
                "end-to-end latency with per-op IP sharing",
    quantization=lambda: QuantizationConfig.fpga(sharing="per_op"),
    default_device="zcu102",
    devices=("zcu102", "zc706"),
    deploy_bits=(4, 8, 16),
    default_deploy_bits=16,
    default_resource_fraction=0.05,
    plan_flow="recursive",
    estimator=_estimate_fpga_recursive,
)
def _build_fpga_recursive(space, quant, config, device) -> HardwareModel:
    return FPGAModel(
        space, quant, device=device, architecture="recursive",
        resource_fraction=config.resource_fraction,
    )


@register_target(
    name="fpga_pipelined",
    description="Pipelined FPGA accelerator (DNNBuilder-like, Sec. 4.1): "
                "throughput with per-stage resources and mixed precision",
    quantization=lambda: QuantizationConfig.fpga(sharing="per_block_op"),
    default_device="zc706",
    devices=("zc706", "zcu102"),
    deploy_bits=(4, 8, 16),
    default_deploy_bits=16,
    default_resource_fraction=0.05,
    plan_flow="pipelined",
    estimator=_estimate_fpga_pipelined,
)
def _build_fpga_pipelined(space, quant, config, device) -> HardwareModel:
    return FPGAModel(
        space, quant, device=device, architecture="pipelined",
        lse_sharpness=config.lse_sharpness,
        resource_fraction=config.resource_fraction,
    )


@register_target(
    name="accel",
    description="Dedicated bit-serial accelerator (Sec. 4.3): latency x "
                "energy proportional to operand precision",
    quantization=lambda: QuantizationConfig.fpga(sharing="per_block_op"),
    default_device="bit-serial-edge",
    devices=("bit-serial-edge",),
    deploy_bits=(4, 8, 16),
    default_deploy_bits=8,
    default_resource_fraction=1.0,
    plan_flow=None,
    estimator=_estimate_accel,
)
def _build_accel(space, quant, config, device) -> HardwareModel:
    return BitSerialAccelModel(space, quant, lanes_budget=device.lanes)
