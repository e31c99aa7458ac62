"""POSIX capability sets.

Cntr gathers the capability sets of the container's init process and applies
them to the processes it injects, so that attached tools run with exactly the
privilege the container had (design §3.2.3, property (1)).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.fs.vfs import ALL_CAPS, DEFAULT_CONTAINER_CAPS

#: Every capability name known to the simulation.
KNOWN_CAPABILITIES = frozenset(ALL_CAPS) | frozenset({
    "CAP_NET_BIND_SERVICE", "CAP_NET_RAW", "CAP_SETPCAP", "CAP_SETFCAP",
    "CAP_SYS_NICE", "CAP_SYS_RESOURCE", "CAP_SYS_TIME", "CAP_IPC_LOCK",
    "CAP_LINUX_IMMUTABLE", "CAP_SYS_MODULE", "CAP_SYS_RAWIO", "CAP_SYS_BOOT",
})

#: The bounding set Docker grants by default (plus net-bind/raw/setpcap/setfcap).
DOCKER_DEFAULT_CAPS = frozenset(DEFAULT_CONTAINER_CAPS) | frozenset({
    "CAP_NET_BIND_SERVICE", "CAP_NET_RAW", "CAP_SETPCAP", "CAP_SETFCAP",
})

#: Full capability set held by host root.
FULL_CAPS = frozenset(KNOWN_CAPABILITIES)


@dataclass(frozen=True)
class CapabilitySet:
    """The five per-process capability sets (ambient omitted for brevity)."""

    effective: frozenset[str] = FULL_CAPS
    permitted: frozenset[str] = FULL_CAPS
    inheritable: frozenset[str] = frozenset()
    bounding: frozenset[str] = FULL_CAPS

    def has(self, cap: str) -> bool:
        """True when ``cap`` is in the effective set."""
        return cap in self.effective

    def drop(self, caps: frozenset[str] | set[str]) -> "CapabilitySet":
        """Remove ``caps`` from every set (CAP_DROP)."""
        caps = frozenset(caps)
        return CapabilitySet(
            effective=self.effective - caps,
            permitted=self.permitted - caps,
            inheritable=self.inheritable - caps,
            bounding=self.bounding - caps,
        )

    @classmethod
    def for_host_root(cls) -> "CapabilitySet":
        """Capabilities of a root process on the host."""
        return cls()

    @classmethod
    def for_container(cls, extra: frozenset[str] | set[str] = frozenset(),
                      dropped: frozenset[str] | set[str] = frozenset()) -> "CapabilitySet":
        """Capabilities of a container's init process with Docker defaults."""
        caps = (DOCKER_DEFAULT_CAPS | frozenset(extra)) - frozenset(dropped)
        return cls(effective=caps, permitted=caps, inheritable=frozenset(), bounding=caps)

    @classmethod
    def empty(cls) -> "CapabilitySet":
        """No capabilities at all (fully unprivileged)."""
        return cls(effective=frozenset(), permitted=frozenset(),
                   inheritable=frozenset(), bounding=frozenset())

    def to_proc_status(self) -> dict[str, str]:
        """The ``Cap*`` lines of ``/proc/<pid>/status`` (hex bitmask placeholders)."""
        def mask(s: frozenset[str]) -> str:
            bits = 0
            for i, cap in enumerate(sorted(KNOWN_CAPABILITIES)):
                if cap in s:
                    bits |= 1 << i
            return f"{bits:016x}"

        return {
            "CapInh": mask(self.inheritable),
            "CapPrm": mask(self.permitted),
            "CapEff": mask(self.effective),
            "CapBnd": mask(self.bounding),
        }
