"""Component inventory, mirroring the implementation statistics of paper §4.

The paper reports the size of the four Rust components (container engine,
CntrFS, pseudo-TTY, socket proxy).  This module computes the same breakdown
for the reproduction by counting lines of the corresponding Python modules,
so the ratio between components can be compared even though the languages and
the substrate differ.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

#: Paper-reported lines of code per component (Rust).
PAPER_COMPONENT_LOC = {
    "container engine": 1549,
    "cntrfs": 1481,
    "pseudo tty": 221,
    "socket proxy": 400,
}
PAPER_TOTAL_LOC = 3651

#: Mapping from paper component to the modules of this reproduction.
COMPONENT_MODULES = {
    "container engine": ("core/context.py", "core/attach.py", "container/engine.py",
                         "container/docker.py", "container/lxc.py", "container/rkt.py",
                         "container/nspawn.py"),
    "cntrfs": ("core/cntrfs.py", "fuse/client.py", "fuse/server.py",
               "fuse/protocol.py", "fuse/device.py", "fuse/options.py"),
    "pseudo tty": ("core/pty_forward.py",),
    "socket proxy": ("core/socket_proxy.py",),
}


@dataclass(frozen=True)
class ComponentSize:
    """Line counts for one component."""

    name: str
    paper_loc: int
    repro_loc: int


def _count_loc(path: Path) -> int:
    """Count non-blank, non-comment lines of one Python file."""
    if not path.exists():
        return 0
    count = 0
    in_docstring = False
    for raw in path.read_text().splitlines():
        line = raw.strip()
        if not line:
            continue
        if in_docstring:
            if line.endswith('"""') or line.endswith("'''"):
                in_docstring = False
            continue
        if line.startswith('"""') or line.startswith("'''"):
            if not (line.endswith('"""') and len(line) > 3) and \
                    not (line.endswith("'''") and len(line) > 3):
                in_docstring = True
            continue
        if line.startswith("#"):
            continue
        count += 1
    return count


def component_inventory(package_root: Path | None = None) -> list[ComponentSize]:
    """Compute the per-component line counts of this reproduction."""
    root = package_root or Path(__file__).resolve().parent.parent
    rows = []
    for component, modules in COMPONENT_MODULES.items():
        total = sum(_count_loc(root / module) for module in modules)
        rows.append(ComponentSize(name=component,
                                  paper_loc=PAPER_COMPONENT_LOC[component],
                                  repro_loc=total))
    return rows


def format_inventory(rows: list[ComponentSize] | None = None) -> str:
    """Render the component inventory as a table."""
    rows = rows or component_inventory()
    lines = [f"{'component':<20} {'paper (Rust LoC)':>18} {'repro (Python LoC)':>20}"]
    for row in rows:
        lines.append(f"{row.name:<20} {row.paper_loc:>18} {row.repro_loc:>20}")
    lines.append(f"{'total':<20} {PAPER_TOTAL_LOC:>18} "
                 f"{sum(r.repro_loc for r in rows):>20}")
    return "\n".join(lines)
