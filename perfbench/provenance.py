"""Where a result came from: machine, toolchain, thread pins, seed and source."""

import hashlib
import os
import platform
import sys

import numpy as np
import scipy

PINNED = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _openblas_version():
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
        return str(deps["blas"].get("version"))
    except (KeyError, TypeError, ValueError):
        return None


def _git_commit(root):
    """HEAD of the checkout when it is a git work tree, read without running git."""
    head = os.path.join(root, ".git", "HEAD")
    if not os.path.isfile(head):
        return None
    with open(head, encoding="utf-8") as f:
        ref = f.read().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_path = os.path.join(root, ".git", *ref[5:].split("/"))
    if os.path.isfile(ref_path):
        with open(ref_path, encoding="utf-8") as f:
            return f.read().strip()
    packed = os.path.join(root, ".git", "packed-refs")
    if os.path.isfile(packed):
        with open(packed, encoding="utf-8") as f:
            for line in f:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref[5:]:
                    return parts[0]
    return None


def _source_digest(root):
    """SHA-256 over the library's source files, for checkouts without git."""
    h = hashlib.sha256()
    src = os.path.join(root, "src", "bimatrix")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            h.update(name.encode())
            with open(os.path.join(src, name), "rb") as f:
                h.update(f.read())
    return h.hexdigest()[:16]


def collect(root, seed):
    return {
        "seed": seed,
        "git_commit": _git_commit(root),
        "src_sha256": _source_digest(root),
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "openblas": _openblas_version(),
        "thread_pins": {k: os.environ.get(k) for k in PINNED},
        "executable": os.path.basename(sys.executable),
    }
