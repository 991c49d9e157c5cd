"""The compiled twins of the law, the substep loop and the ZOH tick loop: ``_kernels.c``, built once and loaded.

``_kernels.c`` is one CPython extension module, ``_kernels``, of three
functions: ``law``, the twin of ``loop.composed_control_law``, the
Python law ``loop.control_law`` builds (0.2-0.3 us a call against
5-9 us); ``tick``, the twin of ``sim.rk4_plant_step``'s substep loop
under every speed source that the closed-form map does not take: a
varying speed profile, and a mechanical speed at a constant or a varying
load, whose profiles it calls from C; and ``run``, the twin of
``sim.run_scenario``'s tick loop for a ``loop.TorqueController``, which
steps every tick of such a run after the first in one call, through the
same C law and substep loop, or the tick map at a constant speed.  Each
does every float operation of its Python twin in the same order, so its
results are bit-identical, and the Python twins stay as their reference
and as the path wherever the module cannot be had.  ``load`` alone
decides that, once per process.
"""

import functools
import importlib.machinery
import importlib.util
import os
import sys
import zlib
from pathlib import Path

__all__ = ["load"]

SOURCE = Path(__file__).with_name("_kernels.c")
CACHE = SOURCE.with_name("__pycache__")
# IEEE binary64 as CPython computes it: no fused multiply-add, and no -ffast-math (which reorders and flushes
# subnormals to zero) or -march
FLAGS = ("-O2", "-std=c99", "-ffp-contract=off", "-shared", "-fPIC")


@functools.cache
def load():
    """The ``_kernels`` extension module, or None where it cannot be had.

    The system C compiler builds ``_kernels.c`` against this interpreter's
    ``Python.h``, with ``FLAGS``, into ``CACHE``, once per digest of the
    source, the flags, the interpreter's version string and installation
    (``sys.base_prefix``), which fix its include directory, and its
    extension suffix (``EXT_SUFFIX``, which names its ABI), so no
    interpreter loads a module built for another; the file is named
    ``_kernels.<digest><EXT_SUFFIX>`` and renamed into place whole.  Only
    a build imports ``sysconfig``, for the include directory: the import
    and the lookup cost about 1.2 ms.  The module loads through
    ``importlib``'s extension loader.  A missing compiler, ``Python.h`` or
    source, a failed compile, an unwritable cache or a module that does
    not load gives None, and the Python twins run.
    """
    suffix = importlib.machinery.EXTENSION_SUFFIXES[0]
    try:
        digest = zlib.crc32("\0".join((SOURCE.read_text(), *FLAGS, sys.version, sys.base_prefix, suffix)).encode())
        path = CACHE / f"_kernels.{digest:08x}{suffix}"
        if not path.exists():
            import subprocess
            import sysconfig

            include = sysconfig.get_path("include")
            CACHE.mkdir(exist_ok=True)
            part = path.with_name(f"{path.name}.{os.getpid()}")  # renamed into place whole, so no process loads half
            built = subprocess.run(["cc", *FLAGS, "-I", include, "-o", str(part), str(SOURCE)], capture_output=True)
            if built.returncode:
                part.unlink(missing_ok=True)
                return None
            os.replace(part, path)
        loader = importlib.machinery.ExtensionFileLoader("oflc._kernels", str(path))
        module = importlib.util.module_from_spec(importlib.util.spec_from_loader(loader.name, loader))
        loader.exec_module(module)
    except (OSError, ImportError):
        return None
    return module
