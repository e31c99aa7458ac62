"""Docker-Slim analogue: build minimal images from file-access analysis.

Two analysis modes are provided, mirroring how the paper's experiment was run:

* **dynamic** — the image is started in a container, the application workload
  is exercised through the (tracked) syscall interface, and the accessed-path
  set comes from the :class:`repro.slim.tracker.AccessTracker`; this is the
  mode the unit tests use on a few images because it runs the whole container
  stack,
* **static** — the accessed-path set is taken from the image's recorded
  runtime profile; the Figure 5 sweep uses it to process all 50 catalogue
  images quickly.

Note the paper's footnote: Docker Slim *identifies* the unnecessary files and
removes them, but it does not give them back at runtime — that is exactly the
gap Cntr fills.  The analyzer therefore also reports which well-known tool
paths were dropped, so examples can demonstrate recovering them via
``cntr attach``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.container.engine import ContainerEngine
from repro.container.image import FileSpec, Image, ImageLayer
from repro.slim.catalogue import hot_paths_of
from repro.slim.tracker import AccessTracker, TrackedSyscalls

#: Paths always kept even when not observed (Docker Slim's include defaults).
ALWAYS_KEEP_PREFIXES = ("/etc/passwd", "/etc/group", "/etc/nsswitch.conf",
                        "/etc/ssl", "/etc/hostname", "/etc/hosts", "/etc/resolv.conf")


@dataclass
class SlimReport:
    """Result of slimming one image."""

    image_name: str
    original_size: int
    slim_size: int
    original_files: int
    slim_files: int
    accessed_paths: set[str] = field(default_factory=set)
    dropped_tools: list[str] = field(default_factory=list)

    @property
    def reduction_percent(self) -> float:
        """Size reduction achieved, in percent."""
        if self.original_size == 0:
            return 0.0
        return (1.0 - self.slim_size / self.original_size) * 100.0


class DockerSlim:
    """Builds slim images from access traces."""

    def __init__(self, keep_prefixes: tuple[str, ...] = ALWAYS_KEEP_PREFIXES) -> None:
        self.keep_prefixes = keep_prefixes

    # ------------------------------------------------------------- analyses
    def analyze_static(self, image: Image,
                       accessed_paths: set[str] | None = None) -> SlimReport:
        """Slim an image from a known accessed-path set (or its recorded profile)."""
        if accessed_paths is None:
            accessed_paths = set(hot_paths_of(image))
            accessed_paths.add(image.config.entrypoint[0] if image.config.entrypoint else "")
        return self._build_report(image, accessed_paths)

    def analyze_dynamic(self, engine: ContainerEngine, image: Image,
                        workload=None, container_name: str | None = None) -> SlimReport:
        """Run the image in a container, exercise it, and slim from the trace.

        ``workload(tracked_syscalls, image)`` drives the application; the
        default workload execs the entrypoint and touches the image's recorded
        hot paths, which is what "manually ran the application so it would
        load all required files" (§5.3) amounts to.
        """
        tracker = AccessTracker()
        container = engine.run(image, name=container_name)
        try:
            sc = engine.exec_in_container(container, list(image.config.entrypoint))
            tracked = TrackedSyscalls(sc, tracker)
            if workload is None:
                self._default_workload(tracked, image)
            else:
                workload(tracked, image)
        finally:
            engine.stop(container)
            engine.remove(container)
        return self._build_report(image, tracker.accessed_paths())

    @staticmethod
    def _default_workload(tracked: TrackedSyscalls, image: Image) -> None:
        paths = [image.config.entrypoint[0]] if image.config.entrypoint else []
        paths += hot_paths_of(image)
        tracked.touch_all(paths)

    # ------------------------------------------------------------- slimming
    def _keep(self, path: str, accessed: set[str]) -> bool:
        if path in accessed:
            return True
        return any(path == prefix or path.startswith(prefix.rstrip("/") + "/")
                   for prefix in self.keep_prefixes)

    def build_slim_image(self, image: Image, accessed_paths: set[str]) -> Image:
        """Produce the minimal image containing only the accessed files."""
        flattened = image.flatten()
        keep_layer = ImageLayer(name=f"{image.name}-slim")
        kept_dirs: set[str] = set()
        for path, spec in sorted(flattened.items()):
            if spec.is_dir:
                continue
            if not self._keep(path, accessed_paths):
                continue
            parent = path.rsplit("/", 1)[0]
            parts = [p for p in parent.split("/") if p]
            built = ""
            for part in parts:
                built = f"{built}/{part}"
                if built not in kept_dirs:
                    keep_layer.files.append(FileSpec(path=built, is_dir=True))
                    kept_dirs.add(built)
            keep_layer.files.append(spec)
        return Image(name=image.name, tag=f"{image.tag}-slim",
                     layers=[keep_layer], config=image.config)

    def _build_report(self, image: Image, accessed_paths: set[str]) -> SlimReport:
        slim = self.build_slim_image(image, accessed_paths)
        flattened = image.flatten()
        original_files = sum(1 for spec in flattened.values()
                             if not spec.is_dir and not spec.whiteout)
        slim_files = sum(1 for layer in slim.layers for spec in layer.files
                         if not spec.is_dir and not spec.whiteout)
        dropped_tools = [path for path in flattened
                         if path.startswith(("/usr/bin/", "/bin/", "/usr/sbin/"))
                         and path not in accessed_paths]
        return SlimReport(
            image_name=image.reference,
            original_size=image.size_bytes,
            slim_size=slim.size_bytes,
            original_files=original_files,
            slim_files=slim_files,
            accessed_paths=set(accessed_paths),
            dropped_tools=sorted(dropped_tools)[:50],
        )
