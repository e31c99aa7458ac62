"""Container images: file specs, layers, configuration and a builder."""

from __future__ import annotations

import hashlib
import itertools
from dataclasses import dataclass, field, replace

_layer_counter = itertools.count(1)


@dataclass(frozen=True)
class FileSpec:
    """One file inside an image layer.

    Contents are optional: most files in the synthetic Top-50 catalogue only
    carry a size (the slim analysis and deployment-time modelling need sizes,
    not bytes).
    """

    path: str
    size: int = 0
    mode: int = 0o644
    content: bytes | None = None
    symlink_target: str | None = None
    is_dir: bool = False
    uid: int = 0
    gid: int = 0
    #: Marks a whiteout entry (deletion of a lower-layer file in overlayfs terms).
    whiteout: bool = False

    @property
    def effective_size(self) -> int:
        """Size counted towards the layer size."""
        if self.is_dir or self.whiteout or self.symlink_target is not None:
            return 0
        return len(self.content) if self.content is not None else self.size


@dataclass
class ImageLayer:
    """One image layer: an ordered list of file specs."""

    name: str
    files: list[FileSpec] = field(default_factory=list)
    layer_id: int = field(default_factory=lambda: next(_layer_counter))

    @property
    def size_bytes(self) -> int:
        """Total bytes of file content in the layer."""
        return sum(f.effective_size for f in self.files)

    @property
    def file_count(self) -> int:
        """Number of non-directory, non-whiteout entries."""
        return sum(1 for f in self.files if not f.is_dir and not f.whiteout)

    def digest(self) -> str:
        """Content-addressed digest of the layer (over paths and sizes)."""
        h = hashlib.sha256()
        for f in self.files:
            h.update(f"{f.path}:{f.size}:{f.mode}:{f.whiteout}".encode())
        return f"sha256:{h.hexdigest()}"

    def add_file(self, path: str, size: int = 0, mode: int = 0o644,
                 content: bytes | None = None) -> None:
        """Append a regular file."""
        self.files.append(FileSpec(path=path, size=size, mode=mode, content=content))

    def add_dir(self, path: str, mode: int = 0o755) -> None:
        """Append a directory."""
        self.files.append(FileSpec(path=path, mode=mode, is_dir=True))

    def add_symlink(self, path: str, target: str) -> None:
        """Append a symlink."""
        self.files.append(FileSpec(path=path, symlink_target=target))

    def add_whiteout(self, path: str) -> None:
        """Append a whiteout marker removing a lower-layer path."""
        self.files.append(FileSpec(path=path, whiteout=True))


@dataclass(frozen=True)
class ImageConfig:
    """Runtime configuration carried by an image (a subset of the OCI config)."""

    entrypoint: tuple[str, ...] = ("/bin/sh",)
    cmd: tuple[str, ...] = ()
    env: tuple[tuple[str, str], ...] = (("PATH", "/usr/local/sbin:/usr/local/bin:/usr/sbin:/usr/bin:/sbin:/bin"),)
    working_dir: str = "/"
    user: str = "root"
    exposed_ports: tuple[int, ...] = ()
    volumes: tuple[str, ...] = ()
    labels: tuple[tuple[str, str], ...] = ()

    def env_dict(self) -> dict[str, str]:
        """Environment as a dictionary."""
        return dict(self.env)

    def argv(self) -> list[str]:
        """The process argv the container starts with."""
        return list(self.entrypoint) + list(self.cmd)


@dataclass
class Image:
    """A container image: layers + config + identity."""

    name: str
    tag: str = "latest"
    layers: list[ImageLayer] = field(default_factory=list)
    config: ImageConfig = field(default_factory=ImageConfig)

    @property
    def reference(self) -> str:
        """``name:tag`` reference."""
        return f"{self.name}:{self.tag}"

    @property
    def size_bytes(self) -> int:
        """Total image size (sum of layer sizes)."""
        return sum(layer.size_bytes for layer in self.layers)

    @property
    def file_count(self) -> int:
        """Total number of files across layers (before whiteout resolution)."""
        return sum(layer.file_count for layer in self.layers)

    def digest(self) -> str:
        """Manifest digest."""
        h = hashlib.sha256()
        for layer in self.layers:
            h.update(layer.digest().encode())
        h.update(self.reference.encode())
        return f"sha256:{h.hexdigest()}"

    def flatten(self) -> dict[str, FileSpec]:
        """Resolve layers (including whiteouts) into a single path -> spec view."""
        merged: dict[str, FileSpec] = {}
        for layer in self.layers:
            for spec in layer.files:
                if spec.whiteout:
                    merged.pop(spec.path, None)
                    # A whiteout also removes everything below a directory.
                    prefix = spec.path.rstrip("/") + "/"
                    for existing in [p for p in merged if p.startswith(prefix)]:
                        del merged[existing]
                else:
                    merged[spec.path] = spec
        return merged


class ImageBuilder:
    """Incremental image builder, loosely mirroring a Dockerfile evaluation."""

    def __init__(self, name: str, tag: str = "latest",
                 base: Image | None = None) -> None:
        self._image = Image(name=name, tag=tag)
        if base is not None:
            self._image.layers.extend(base.layers)
            self._image.config = base.config
        self._current_layer: ImageLayer | None = None

    def _layer(self) -> ImageLayer:
        if self._current_layer is None:
            index = len(self._image.layers) + 1
            self._current_layer = ImageLayer(name=f"{self._image.name}-layer{index}")
            self._image.layers.append(self._current_layer)
        return self._current_layer

    def new_layer(self) -> "ImageBuilder":
        """Start a new layer (like each Dockerfile instruction)."""
        self._current_layer = None
        return self

    def add_file(self, path: str, size: int = 0, mode: int = 0o644,
                 content: bytes | str | None = None) -> "ImageBuilder":
        """COPY/ADD one file."""
        if isinstance(content, str):
            content = content.encode()
        self._layer().add_file(path, size=size, mode=mode, content=content)
        return self

    def add_dir(self, path: str, mode: int = 0o755) -> "ImageBuilder":
        """Create a directory."""
        self._layer().add_dir(path, mode)
        return self

    def add_symlink(self, path: str, target: str) -> "ImageBuilder":
        """Create a symlink."""
        self._layer().add_symlink(path, target)
        return self

    def remove(self, path: str) -> "ImageBuilder":
        """RUN rm -rf path (becomes a whiteout in the current layer)."""
        self._layer().add_whiteout(path)
        return self

    def add_tree(self, prefix: str, files: dict[str, int],
                 mode: int = 0o644) -> "ImageBuilder":
        """Add a whole tree of ``relative path -> size`` entries under ``prefix``."""
        seen_dirs: set[str] = set()
        layer = self._layer()
        for rel, size in files.items():
            full = f"{prefix.rstrip('/')}/{rel.lstrip('/')}"
            parent = full.rsplit("/", 1)[0]
            parts = [p for p in parent.split("/") if p]
            built = ""
            for part in parts:
                built = f"{built}/{part}"
                if built not in seen_dirs:
                    layer.add_dir(built)
                    seen_dirs.add(built)
            layer.add_file(full, size=size, mode=mode)
        return self

    def entrypoint(self, *argv: str) -> "ImageBuilder":
        """Set the ENTRYPOINT."""
        self._image.config = replace(self._image.config, entrypoint=tuple(argv))
        return self

    def cmd(self, *argv: str) -> "ImageBuilder":
        """Set the CMD."""
        self._image.config = replace(self._image.config, cmd=tuple(argv))
        return self

    def env(self, key: str, value: str) -> "ImageBuilder":
        """Set an ENV entry."""
        env = dict(self._image.config.env)
        env[key] = value
        self._image.config = replace(self._image.config, env=tuple(env.items()))
        return self

    def workdir(self, path: str) -> "ImageBuilder":
        """Set the WORKDIR."""
        self._image.config = replace(self._image.config, working_dir=path)
        return self

    def expose(self, port: int) -> "ImageBuilder":
        """EXPOSE a port."""
        ports = tuple(self._image.config.exposed_ports) + (port,)
        self._image.config = replace(self._image.config, exposed_ports=ports)
        return self

    def label(self, key: str, value: str) -> "ImageBuilder":
        """Add a LABEL."""
        labels = tuple(self._image.config.labels) + ((key, value),)
        self._image.config = replace(self._image.config, labels=labels)
        return self

    def build(self) -> Image:
        """Finish and return the image."""
        return self._image
