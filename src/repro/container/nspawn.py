"""systemd-nspawn engine front-end."""

from __future__ import annotations

from repro.container.engine import ContainerEngine, ContainerError
from repro.container.image import Image


class NspawnEngine(ContainerEngine):
    """systemd-nspawn: machine-addressed containers.

    Cntr's nspawn adapter uses ``machinectl show <machine> -p Leader`` to find
    the init pid; ``machinectl_show`` reproduces that property interface.
    nspawn machines live under the ``machine.slice`` cgroup.
    """

    engine_name = "systemd-nspawn"
    cgroup_parent = "/machine.slice"
    default_hostname_prefix = "nspawn"

    def container_name_for(self, requested: str | None, image: Image) -> str:
        # machinectl names default to the image (directory) name.
        return requested or image.name.replace("/", "-")

    def machinectl_show(self, machine: str) -> dict[str, str]:
        """Equivalent of ``machinectl show <machine>``."""
        container = self.find(machine)
        props = {"Name": container.name,
                 "Class": "container",
                 "State": "running" if container.status == "running" else "closing"}
        if container.init_pid is not None:
            props["Leader"] = str(container.init_pid)
        return props

    def resolve_name_to_pid(self, name_or_id: str) -> int:
        props = self.machinectl_show(name_or_id)
        if "Leader" not in props:
            raise ContainerError(f"machine not running: {name_or_id}")
        return int(props["Leader"])
