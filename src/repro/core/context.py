"""Step #1: resolve the container and gather its execution context from /proc.

The kernel has no concept of a container, so Cntr reads everything it needs to
faithfully impersonate "a process inside the container" from the ``/proc``
entries of the container's init process: namespaces, cgroup membership,
capability sets, uid/gid maps, the LSM profile and the environment variables
(heavily used by containerised applications for configuration and service
discovery).  This module performs those reads through the simulated ``/proc``
filesystem — the same code path a real implementation would use — and returns
a :class:`ContainerContext`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.fs.errors import FsError
from repro.kernel.capabilities import KNOWN_CAPABILITIES
from repro.kernel.machine import Machine
from repro.kernel.namespaces import Namespace, NamespaceKind
from repro.kernel.syscalls import Syscalls


@dataclass
class ContainerContext:
    """Everything Cntr needs to know about a container before attaching."""

    pid: int
    namespaces: dict[NamespaceKind, str] = field(default_factory=dict)
    environment: dict[str, str] = field(default_factory=dict)
    cgroup_path: str = "/"
    capabilities_hex: dict[str, str] = field(default_factory=dict)
    effective_capabilities: frozenset[str] = frozenset()
    uid: int = 0
    gid: int = 0
    groups: frozenset[int] = frozenset()
    uid_map: list[tuple[int, int, int]] = field(default_factory=list)
    gid_map: list[tuple[int, int, int]] = field(default_factory=list)
    lsm_profile: str = "unconfined"
    mounts: list[str] = field(default_factory=list)

    def environment_without_path(self) -> dict[str, str]:
        """Environment to apply inside the nested namespace (PATH excluded)."""
        return {k: v for k, v in self.environment.items() if k != "PATH"}


def _read_proc_file(sc: Syscalls, path: str, max_bytes: int = 1 << 20) -> bytes:
    fd = sc.open(path)
    try:
        return sc.read(fd, max_bytes)
    finally:
        sc.close(fd)


def _parse_environ(blob: bytes) -> dict[str, str]:
    env: dict[str, str] = {}
    for chunk in blob.split(b"\x00"):
        if not chunk:
            continue
        text = chunk.decode(errors="replace")
        if "=" in text:
            key, value = text.split("=", 1)
            env[key] = value
    return env


def _parse_status(blob: bytes) -> dict[str, str]:
    fields: dict[str, str] = {}
    for line in blob.decode(errors="replace").splitlines():
        if ":" in line:
            key, value = line.split(":", 1)
            fields[key.strip()] = value.strip()
    return fields


def _parse_id_map(blob: bytes) -> list[tuple[int, int, int]]:
    rows = []
    for line in blob.decode(errors="replace").splitlines():
        parts = line.split()
        if len(parts) == 3:
            rows.append((int(parts[0]), int(parts[1]), int(parts[2])))
    return rows


def _decode_cap_mask(mask_hex: str) -> frozenset[str]:
    """Invert the bitmask encoding used by the simulated /proc status."""
    try:
        bits = int(mask_hex, 16)
    except ValueError:
        return frozenset()
    names = sorted(KNOWN_CAPABILITIES)
    return frozenset(name for i, name in enumerate(names) if bits & (1 << i))


def gather_context(machine: Machine, pid: int,
                   sc: Syscalls | None = None) -> ContainerContext:
    """Gather the execution context of ``pid`` by reading the host ``/proc``."""
    sc = sc or machine.syscalls
    base = f"/proc/{pid}"
    if not sc.exists(base):
        raise FsError.esrch(f"pid {pid}")

    environ = _parse_environ(_read_proc_file(sc, f"{base}/environ"))
    status = _parse_status(_read_proc_file(sc, f"{base}/status"))
    cgroup_line = _read_proc_file(sc, f"{base}/cgroup").decode().strip()
    cgroup_path = cgroup_line.split("::", 1)[1] if "::" in cgroup_line else "/"
    lsm = _read_proc_file(sc, f"{base}/attr/current").decode().strip()
    mounts = _read_proc_file(sc, f"{base}/mounts").decode().splitlines()

    namespaces: dict[NamespaceKind, str] = {}
    for kind in NamespaceKind:
        try:
            namespaces[kind] = sc.readlink(f"{base}/ns/{kind.value}")
        except FsError:
            continue

    uid = int(status.get("Uid", "0").split()[0])
    gid = int(status.get("Gid", "0").split()[0])
    groups = frozenset(int(g) for g in status.get("Groups", "").split() if g.isdigit())
    caps_hex = {key: status[key] for key in ("CapInh", "CapPrm", "CapEff", "CapBnd")
                if key in status}
    effective = _decode_cap_mask(caps_hex.get("CapEff", "0"))

    return ContainerContext(
        pid=pid,
        namespaces=namespaces,
        environment=environ,
        cgroup_path=cgroup_path,
        capabilities_hex=caps_hex,
        effective_capabilities=effective,
        uid=uid,
        gid=gid,
        groups=groups,
        uid_map=_parse_id_map(_read_proc_file(sc, f"{base}/uid_map")),
        gid_map=_parse_id_map(_read_proc_file(sc, f"{base}/gid_map")),
        lsm_profile=lsm.split()[0] if lsm else "unconfined",
        mounts=mounts,
    )


def open_namespace_handles(machine: Machine, pid: int) -> dict[NamespaceKind, Namespace]:
    """Obtain joinable namespace handles for ``pid``.

    This models opening ``/proc/<pid>/ns/*`` file descriptors: the handles
    returned here are the objects :meth:`repro.kernel.kernel.Kernel.setns`
    accepts, and they stay valid even if the target process later exits.
    """
    process = machine.kernel.find_process(pid)
    return dict(process.namespaces)


def resolve_container(engines, name_or_id: str) -> int:
    """Resolve a container name across one or more engines to an init pid.

    ``engines`` may be a single engine or an iterable; the first engine that
    recognises the name wins, mirroring Cntr's engine auto-detection.
    """
    if not isinstance(engines, (list, tuple)):
        engines = [engines]
    errors = []
    for engine in engines:
        try:
            return engine.resolve_name_to_pid(name_or_id)
        except Exception as exc:  # noqa: BLE001 - collect and re-raise below
            errors.append(f"{engine.engine_name}: {exc}")
    raise FsError.enoent(f"container {name_or_id!r} not found by any engine "
                         f"({'; '.join(errors)})")
