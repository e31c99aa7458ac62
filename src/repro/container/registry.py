"""Image registry with deployment-cost modelling.

The paper's motivation rests on the observation (from prior work it cites)
that image download dominates container deployment time, so the registry
models pull time as a function of transferred bytes and link bandwidth; the
layer cache makes repeated pulls of shared base layers free, mirroring the
union-filesystem argument of §2.2.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.container.image import Image
from repro.fs.errors import FsError
from repro.sim.clock import VirtualClock

#: Default registry link bandwidth (bytes/second): 1 Gbit/s effective.
DEFAULT_BANDWIDTH_BPS = 125_000_000
#: Per-layer request latency (registry round trip), nanoseconds.
LAYER_REQUEST_LATENCY_NS = 40_000_000


@dataclass(frozen=True)
class PullResult:
    """Outcome of one image pull."""

    image: Image
    bytes_transferred: int
    bytes_cached: int
    duration_ns: int


@dataclass
class RegistryStats:
    """Registry-wide accounting."""

    pushes: int = 0
    pulls: int = 0
    bytes_served: int = 0


class Registry:
    """A content-addressed image registry."""

    def __init__(self, clock: VirtualClock, bandwidth_bps: int = DEFAULT_BANDWIDTH_BPS) -> None:
        self.clock = clock
        self.bandwidth_bps = bandwidth_bps
        self._images: dict[str, Image] = {}
        self._layer_store: dict[str, int] = {}
        self.stats = RegistryStats()

    def push(self, image: Image) -> str:
        """Push an image; returns the manifest digest."""
        self._images[image.reference] = image
        for layer in image.layers:
            self._layer_store[layer.digest()] = layer.size_bytes
        self.stats.pushes += 1
        return image.digest()

    def has(self, reference: str) -> bool:
        """True when the registry holds ``reference``."""
        return reference in self._images

    def get(self, reference: str) -> Image:
        """Fetch image metadata without transferring layers."""
        if reference not in self._images:
            raise FsError.enoent(reference)
        return self._images[reference]

    def pull(self, reference: str, local_layer_cache: set[str] | None = None) -> PullResult:
        """Pull an image, charging transfer time for layers not cached locally."""
        image = self.get(reference)
        cache = local_layer_cache if local_layer_cache is not None else set()
        transferred = 0
        cached = 0
        duration = 0
        for layer in image.layers:
            digest = layer.digest()
            duration += LAYER_REQUEST_LATENCY_NS
            if digest in cache:
                cached += layer.size_bytes
                continue
            transferred += layer.size_bytes
            duration += int(layer.size_bytes / self.bandwidth_bps * 1e9)
            cache.add(digest)
        self.clock.advance(duration)
        self.stats.pulls += 1
        self.stats.bytes_served += transferred
        return PullResult(image=image, bytes_transferred=transferred,
                          bytes_cached=cached, duration_ns=duration)

    def estimate_deploy_time_s(self, reference: str,
                               cached_layers: set[str] | None = None) -> float:
        """Estimate deployment time without advancing the clock."""
        image = self.get(reference)
        cache = set(cached_layers or ())
        duration = 0
        for layer in image.layers:
            duration += LAYER_REQUEST_LATENCY_NS
            if layer.digest() not in cache:
                duration += int(layer.size_bytes / self.bandwidth_bps * 1e9)
        return duration / 1e9
