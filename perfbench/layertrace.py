"""Outside, generator-aware host-time tracer for the ``repro`` layers.

The tracer patches public entry points of each layer on their classes
(``Server.execute``, ``WalManager.log``, ``NvmeDevice.submit``, ...)
and ``Environment.process``, so nothing inside ``src/`` changes. Most
entry points are generators that the event loop resumes many times,
so a wrapper times every resume, not the call that creates the
generator. A process's own frames are booked to the layer whose module
defines the process's generator; frames of the benchmark's own files
are the ``workloads`` layer. ``Environment.run`` is the root: whatever
no other layer claims is the engine's own dispatch.

Each timed interval is a span (layer, start, end, parent). A layer's
self time is its spans' time minus the time of the spans nested in
them, so the layers' self times sum to the root spans' time. The
wrappers add host time only: they yield exactly what the wrapped
generator yields, so the simulation (event counts included) is
unchanged.
"""

from __future__ import annotations

import gzip
import inspect
import os
import sys
import time
from array import array
from types import FunctionType, GeneratorType

LAYERS = (
    "workloads", "sim.engine", "sim.resources", "net", "imdb", "persist",
    "core", "kernel.iouring", "kernel.fs", "kernel.pagecache",
    "kernel.blocklayer", "nvme", "flash", "obs",
)

#: (module, attribute path, layer). A class entry wraps the method as
#: defined on that class; a bare function entry is rebound in every
#: ``repro`` module that imported it.
ENTRY_POINTS = (
    ("repro.sim.engine", "Environment.run", "sim.engine"),
    ("repro.sim.resources", "Resource.request", "sim.resources"),
    ("repro.sim.resources", "Resource.release", "sim.resources"),
    ("repro.sim.resources", "Lock.request", "sim.resources"),
    ("repro.sim.resources", "Lock.release", "sim.resources"),
    ("repro.sim.resources", "Store.put", "sim.resources"),
    ("repro.sim.resources", "Store.get", "sim.resources"),
    ("repro.sim.resources", "Store.try_get", "sim.resources"),
    ("repro.net.conn", "Connection.send", "net"),
    ("repro.net.conn", "Connection.drain", "net"),
    ("repro.net.conn", "Connection.close", "net"),
    ("repro.net.frontend", "Listener.connect", "net"),
    ("repro.net.frontend", "NetFrontend.record_completion", "net"),
    ("repro.net.frontend", "AdmissionController.try_acquire", "net"),
    ("repro.net.frontend", "AdmissionController.acquire", "net"),
    ("repro.net.frontend", "AdmissionController.release", "net"),
    ("repro.imdb.server", "Server.execute", "imdb"),
    ("repro.imdb.server", "Server.start_snapshot", "imdb"),
    ("repro.persist.wal", "WalManager.log", "persist"),
    ("repro.persist.wal", "WalManager.stage", "persist"),
    ("repro.persist.wal", "WalManager.ensure_durable", "persist"),
    ("repro.persist.wal", "WalManager.flush_now", "persist"),
    ("repro.persist.wal", "WalManager.idle_drain", "persist"),
    ("repro.persist.wal", "WalManager.retire_previous", "persist"),
    ("repro.persist.snapshot", "SnapshotWriterProcess.run", "persist"),
    ("repro.persist.file_backends", "FileAppendSink.append", "persist"),
    ("repro.persist.file_backends", "FileAppendSink.flush", "persist"),
    ("repro.persist.file_backends", "FileAppendSink.retire_previous",
     "persist"),
    ("repro.persist.file_backends", "FileSnapshotSink.write", "persist"),
    ("repro.persist.file_backends", "FileSnapshotSink.finalize", "persist"),
    ("repro.persist.file_backends", "FileSnapshotSource.read", "persist"),
    ("repro.persist.recovery", "recover_store", "persist"),
    ("repro.core.engine", "BaselineSystem.recover", "persist"),
    ("repro.core.engine", "SlimIOSystem.recover", "core"),
    ("repro.core.paths", "WalPath.append", "core"),
    ("repro.core.paths", "WalPath.flush", "core"),
    ("repro.core.paths", "WalPath.begin_generation", "core"),
    ("repro.core.paths", "WalPath.retire_previous", "core"),
    ("repro.core.paths", "SnapshotPath.write", "core"),
    ("repro.core.paths", "SnapshotPath.finalize", "core"),
    ("repro.core.paths", "SlimIOSnapshotSource.read", "core"),
    ("repro.core.metadata", "MetadataStore.write", "core"),
    ("repro.core.metadata", "MetadataStore.read", "core"),
    ("repro.core.readahead", "ReadAheadBuffer.read", "core"),
    ("repro.kernel.iouring", "IoUringRing.submit", "kernel.iouring"),
    ("repro.kernel.iouring", "IoUringRing.wait", "kernel.iouring"),
    ("repro.kernel.iouring", "IoUringRing.submit_and_wait",
     "kernel.iouring"),
    ("repro.kernel.iouring", "PassthruQueuePair.write_pages",
     "kernel.iouring"),
    ("repro.kernel.iouring", "PassthruQueuePair.read_pages",
     "kernel.iouring"),
    ("repro.kernel.iouring", "PassthruQueuePair.deallocate",
     "kernel.iouring"),
    ("repro.kernel.fs", "PosixFile.write", "kernel.fs"),
    ("repro.kernel.fs", "PosixFile.pwrite", "kernel.fs"),
    ("repro.kernel.fs", "PosixFile.read", "kernel.fs"),
    ("repro.kernel.fs", "PosixFile.fsync", "kernel.fs"),
    ("repro.kernel.fs", "Filesystem.create", "kernel.fs"),
    ("repro.kernel.fs", "Filesystem.rename", "kernel.fs"),
    ("repro.kernel.fs", "Filesystem.unlink", "kernel.fs"),
    ("repro.kernel.pagecache", "PageCache.write", "kernel.pagecache"),
    ("repro.kernel.pagecache", "PageCache.read", "kernel.pagecache"),
    ("repro.kernel.pagecache", "PageCache.fsync", "kernel.pagecache"),
    ("repro.kernel.blocklayer", "BlockLayer.submit", "kernel.blocklayer"),
    ("repro.nvme.device", "NvmeDevice.submit", "nvme"),
    ("repro.flash.ftl", "FlashTranslationLayer.write", "flash"),
    ("repro.flash.ftl", "FlashTranslationLayer.read", "flash"),
    ("repro.flash.ftl", "FlashTranslationLayer.write_burst", "flash"),
    ("repro.flash.ftl", "FlashTranslationLayer.read_burst", "flash"),
    ("repro.flash.ftl", "FlashTranslationLayer.deallocate", "flash"),
    ("repro.obs.registry", "ObsCounter.inc", "obs"),
    ("repro.obs.registry", "ObsGauge.set", "obs"),
    ("repro.obs.registry", "ObsGauge.add", "obs"),
    ("repro.obs.registry", "ObsHistogram.observe", "obs"),
    ("repro.obs.registry", "MetricsRegistry.span", "obs"),
    ("repro.obs.spans", "Span.__enter__", "obs"),
    ("repro.obs.spans", "Span.__exit__", "obs"),
)

#: layer of a process whose generator is defined in ``repro/<path>``
_MODULE_LAYERS = {
    "sim/resources.py": "sim.resources",
    "kernel/iouring.py": "kernel.iouring",
    "kernel/fs.py": "kernel.fs",
    "kernel/pagecache.py": "kernel.pagecache",
    "kernel/blocklayer.py": "kernel.blocklayer",
}
_PACKAGE_LAYERS = {"sim": "sim.engine", "workloads": "workloads",
                   "net": "net", "imdb": "imdb", "persist": "persist",
                   "core": "core", "nvme": "nvme", "flash": "flash",
                   "obs": "obs"}

_BENCH_DIR = os.path.dirname(os.path.abspath(__file__))


def _resolve(module: str, path: str):
    obj = sys.modules[module]
    owner = None
    for part in path.split("."):
        owner, obj = obj, getattr(obj, part)
    return owner, path.rsplit(".", 1)[-1], obj


class LayerTracer:
    """Per-layer call counts and self time, plus an in-memory span log."""

    def __init__(self, span_cap: int = 1 << 18):
        self.index = {name: i for i, name in enumerate(LAYERS)}
        self.span_cap = span_cap
        self._patches: list[tuple[object, str, object]] = []
        self._code_layers: dict = {}
        self.reset()

    # -- accounting ------------------------------------------------------
    def reset(self) -> None:
        """Drop everything recorded so far (no span may be open)."""
        if getattr(self, "_stack", None):
            raise RuntimeError("tracer reset while a span is open")
        n = len(LAYERS)
        self.calls = [0] * n
        self.self_s = [0.0] * n
        self._stack: list[list] = []
        self.span_layer = array("b")
        self.span_parent = array("l")
        self.span_t0 = array("d")
        self.span_t1 = array("d")
        self.spans_dropped = 0
        #: time of the top-level spans (the ``Environment.run`` roots)
        self.root_s = 0.0
        self.t_origin = time.perf_counter()

    def _open(self, layer: int, t0: float) -> list:
        stack = self._stack
        idx = len(self.span_t0)
        if idx < self.span_cap:
            self.span_layer.append(layer)
            self.span_parent.append(stack[-1][2] if stack else -1)
            self.span_t0.append(t0)
            self.span_t1.append(t0)
        else:
            idx = -1
            self.spans_dropped += 1
        frame = [t0, 0.0, idx]
        stack.append(frame)
        return frame

    def _close(self, layer: int, frame: list) -> None:
        t1 = time.perf_counter()
        stack = self._stack
        stack.pop()
        dur = t1 - frame[0]
        self.self_s[layer] += dur - frame[1]
        if stack:
            stack[-1][1] += dur
        else:
            self.root_s += dur
        if frame[2] >= 0:
            self.span_t1[frame[2]] = t1

    def _resumes(self, layer: int, gen):
        """Drive ``gen`` step by step, timing each resume as one span."""
        send, throw = gen.send, gen.throw
        value = error = None
        while True:
            frame = self._open(layer, time.perf_counter())
            try:
                out = send(value) if error is None else throw(error)
            except StopIteration as stop:
                self._close(layer, frame)
                return stop.value
            except BaseException:
                self._close(layer, frame)
                raise
            self._close(layer, frame)
            error = None
            try:
                value = yield out
            except GeneratorExit:
                gen.close()
                raise
            except BaseException as exc:  # thrown in by the engine
                value, error = None, exc

    def _wrap(self, layer: int, fn):
        tracer = self
        if inspect.isgeneratorfunction(fn):
            def wrapper(*args, **kwargs):
                tracer.calls[layer] += 1
                inner = fn(*args, **kwargs)
                outer = tracer._resumes(layer, inner)
                outer.__name__ = inner.__name__
                return outer
        else:
            def wrapper(*args, **kwargs):
                tracer.calls[layer] += 1
                frame = tracer._open(layer, time.perf_counter())
                try:
                    out = fn(*args, **kwargs)
                finally:
                    tracer._close(layer, frame)
                if type(out) is GeneratorType:
                    wrapped = tracer._resumes(layer, out)
                    wrapped.__name__ = out.__name__
                    return wrapped
                return out
        wrapper.__name__ = fn.__name__
        wrapper.__qualname__ = fn.__qualname__
        wrapper.__wrapped__ = fn
        return wrapper

    def layer_of_code(self, code) -> int:
        layer = self._code_layers.get(code)
        if layer is not None:
            return layer
        path = os.path.abspath(code.co_filename)
        if os.path.dirname(path) == _BENCH_DIR:
            name = "workloads"
        else:
            parts = path.replace("\\", "/").split("/repro/", 1)
            if len(parts) != 2:
                raise LookupError(f"process code outside repro: {path}")
            rel = parts[1]
            name = _MODULE_LAYERS.get(rel) or _PACKAGE_LAYERS.get(
                rel.split("/", 1)[0])
            if name is None:
                raise LookupError(f"no layer for repro/{rel}")
        layer = self.index[name]
        self._code_layers[code] = layer
        return layer

    # -- installation ----------------------------------------------------
    def _patch(self, owner, name: str, value) -> None:
        self._patches.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def install(self) -> None:
        """Wrap every entry point; call before building the system."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        for module, path, layer in ENTRY_POINTS:
            owner, name, fn = _resolve(module, path)
            if not isinstance(owner, type):
                # a module function: rebind it wherever repro imported it
                wrapped = self._wrap(self.index[layer], fn)
                for mod_name, mod in list(sys.modules.items()):
                    if (mod_name == "repro" or mod_name.startswith("repro.")) \
                            and mod.__dict__.get(name) is fn:
                        self._patch(mod, name, wrapped)
                continue
            if not isinstance(owner.__dict__.get(name), FunctionType):
                raise TypeError(f"{module}.{path} is not a plain method")
            self._patch(owner, name, self._wrap(self.index[layer], fn))

        from repro.sim.engine import Environment

        original = Environment.__dict__["process"]
        resumes_code = LayerTracer._resumes.__code__
        tracer = self

        def process(env, generator, name=None):
            if type(generator) is GeneratorType \
                    and generator.gi_code is not resumes_code:
                layer = tracer.layer_of_code(generator.gi_code)
                tracer.calls[layer] += 1
                name = name or generator.__name__
                generator = tracer._resumes(layer, generator)
            return original(env, generator, name)

        self._patch(Environment, "process", process)

    def uninstall(self) -> None:
        for owner, name, value in reversed(self._patches):
            setattr(owner, name, value)
        self._patches.clear()

    # -- results ---------------------------------------------------------
    def results(self) -> dict:
        out = {}
        for name, i in self.index.items():
            out[f"{name}.calls"] = self.calls[i]
            out[f"{name}.self_s"] = self.self_s[i]
        return out

    def write_spans(self, path: str) -> int:
        """Write the span log as gzip CSV: layer,start_us,end_us,parent."""
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        origin = self.t_origin
        with gzip.open(path, "wt", compresslevel=1) as f:
            f.write("span,layer,start_us,end_us,parent\n")
            for i in range(len(self.span_t0)):
                f.write(f"{i},{LAYERS[self.span_layer[i]]},"
                        f"{(self.span_t0[i] - origin) * 1e6:.3f},"
                        f"{(self.span_t1[i] - origin) * 1e6:.3f},"
                        f"{self.span_parent[i]}\n")
        return len(self.span_t0)
