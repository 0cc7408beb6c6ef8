"""Stand-in input files for the benchmark workloads that need them.

Both generators draw everything from the workload seed, so one seed
always writes byte-identical files. They import numpy only, never sqnn:
the benchmark's worker runs this module as its own process, so that the
time it takes counts toward the worker's set-up while its memory stays
out of the worker's peak resident size.

Run it by hand to regenerate the inputs of one workload:

    python3 benchmarks/inputs.py ccpp-gd-reduced-cv 7 /tmp/ccpp
    python3 benchmarks/inputs.py mnist-pair-lls 7 /tmp/mnist
"""

from __future__ import annotations

import gzip
import struct
import sys
from pathlib import Path

import numpy as np

CCPP_ROWS = 9568
CCPP_FILE = "ccpp.csv"
CCPP_HEADER = ("AT", "V", "AP", "RH", "PE")
# Observed (min, max) of each column of the real Combined Cycle Power
# Plant table: ambient temperature, exhaust vacuum, ambient pressure,
# relative humidity, and the net electrical output (the target).
CCPP_RANGES = ((1.81, 37.11), (25.36, 81.56), (992.89, 1033.30), (25.56, 100.16))

# The digit pair of the table6-mnist recipe that the stand-in holds, and
# the real MNIST class sizes of that pair, so the shapes match the real
# 0-vs-1 problem: 5923 + 6742 training and 980 + 1135 test images.
MNIST_PAIR = (0, 1)
MNIST_TRAIN = (5923, 6742)
MNIST_TEST = (980, 1135)
MNIST_SIDE = 28
MNIST_FILES = ("train-images-idx3-ubyte.gz", "train-labels-idx1-ubyte.gz",
               "t10k-images-idx3-ubyte.gz", "t10k-labels-idx1-ubyte.gz")
# Pixel levels: background, stroke and the half-width of the uniform
# per-pixel noise. With these the two classes are linearly separable by
# construction (see mnist_templates).
MNIST_BACKGROUND, MNIST_STROKE, MNIST_NOISE = 40, 170, 35


def write_ccpp(seed: int, directory: Path) -> None:
    """A CCPP-shaped regression table: 9568 rows of four features, each
    uniform over the range of its real counterpart, and a smooth target
    plus Gaussian noise, written with a header and two decimals."""
    rng = np.random.default_rng([seed, 2])
    lo = np.array([r[0] for r in CCPP_RANGES])
    hi = np.array([r[1] for r in CCPP_RANGES])
    x = rng.uniform(lo, hi, (CCPP_ROWS, 4))
    at, v, ap, rh = x.T
    pe = (454.0 - 1.7 * (at - 19.6) - 0.3 * (v - 54.0) + 0.07 * (ap - 1013.0)
          - 0.15 * (rh - 73.0) + 2.0 * np.sin(at / 6.0)
          + rng.normal(0.0, 3.0, CCPP_ROWS))
    rows = np.column_stack([x, pe])
    lines = [",".join(CCPP_HEADER)]
    lines += [",".join(f"{value:.2f}" for value in row) for row in rows]
    (directory / CCPP_FILE).write_text("\n".join(lines) + "\n")


def mnist_templates() -> np.ndarray:
    """Two 28x28 class templates: a ring for the first digit of the pair
    and a vertical bar for the second.

    Each image is its template plus integer noise in [-35, 35], so pixels
    stay in [5, 205] and are never clipped. The templates differ by 130
    on a set D of pixels, so with d = t0 - t1 an image x of class c has
    <x - (t0 + t1) / 2, d> = +-|D| 130^2 / 2 + <noise, d>, and
    |<noise, d>| <= 35 * 130 |D| is below |D| 130^2 / 2: the hyperplane
    through the midpoint with normal d separates the classes exactly.
    """
    r, c = np.mgrid[0:MNIST_SIDE, 0:MNIST_SIDE]
    dist = np.hypot(r - 13.5, c - 13.5)
    ring = (dist >= 6.0) & (dist <= 10.0)
    bar = (np.abs(c - 13.5) <= 2.5) & (r >= 4) & (r <= 23)
    out = np.full((2, MNIST_SIDE, MNIST_SIDE), MNIST_BACKGROUND, dtype=np.int16)
    out[0][ring] = MNIST_STROKE
    out[1][bar] = MNIST_STROKE
    return out


def _draw_split(rng, counts) -> tuple[np.ndarray, np.ndarray]:
    templates = mnist_templates()
    classes = np.repeat([0, 1], counts)
    classes = classes[rng.permutation(classes.size)]
    noise = rng.integers(-MNIST_NOISE, MNIST_NOISE + 1,
                         (classes.size, MNIST_SIDE, MNIST_SIDE), dtype=np.int16)
    images = (templates[classes] + noise).astype(np.uint8)
    labels = np.asarray(MNIST_PAIR, dtype=np.uint8)[classes]
    return images, labels


def _write_gzip(path: Path, payload: bytes) -> None:
    # mtime=0 keeps the bytes a function of the seed alone
    with open(path, "wb") as raw, gzip.GzipFile(filename="", mode="wb", fileobj=raw,
                                                 mtime=0, compresslevel=1) as fh:
        fh.write(payload)


def write_mnist(seed: int, directory: Path) -> None:
    """Gzipped IDX image and label files of the two-class stand-in, under
    the four names the library's mnist dataset expects."""
    rng = np.random.default_rng([seed, 6])
    for stem, counts in ((MNIST_FILES[0:2], MNIST_TRAIN), (MNIST_FILES[2:4], MNIST_TEST)):
        images, labels = _draw_split(rng, counts)
        n = labels.size
        _write_gzip(directory / stem[0],
                    struct.pack(">IIII", 0x803, n, MNIST_SIDE, MNIST_SIDE) + images.tobytes())
        _write_gzip(directory / stem[1], struct.pack(">II", 0x801, n) + labels.tobytes())


WRITERS = {"ccpp-gd-reduced-cv": write_ccpp, "mnist-pair-lls": write_mnist}


def main(argv: list[str]) -> int:
    if len(argv) != 3 or argv[0] not in WRITERS:
        print(f"usage: inputs.py {{{','.join(WRITERS)}}} SEED DIRECTORY", file=sys.stderr)
        return 2
    directory = Path(argv[2])
    directory.mkdir(parents=True, exist_ok=True)
    WRITERS[argv[0]](int(argv[1]), directory)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
