"""Datasets: seeded Gaussian-blob classification and IDX image files."""

import struct
from dataclasses import dataclass

import numpy as np


@dataclass
class Dataset:
    x_train: np.ndarray
    y_train: np.ndarray
    x_test: np.ndarray
    y_test: np.ndarray
    class_count: int

    @property
    def input_shape(self):
        return self.x_train.shape[1:]

    def batch(self, size, seed, from_class=None):
        """A fixed seeded batch from the test split: :meth:`batch_rows`' rows."""
        idx = self.batch_rows(size, seed, from_class)
        return self.x_test[idx], self.y_test[idx]

    def batch_rows(self, size, seed, from_class=None):
        """Test-split row indices of a fixed seeded batch.

        Mixed batches are stratified: every class contributes an equal share
        (up to rounding), so per-class prevalence in the batch is flat rather
        than multinomially noisy.  ``from_class`` restricts sampling to one
        label (used by the targeted search).  Sampling is without replacement
        when possible; every class needs a test row, as ``build_dataset`` checks.
        """
        rng = np.random.default_rng(seed)
        if from_class is not None:
            pool = np.flatnonzero(self.y_test == from_class)
            return rng.choice(pool, size=size, replace=pool.size < size)
        per_class, extra = divmod(size, self.class_count)
        picks = []
        for c in range(self.class_count):
            pool = np.flatnonzero(self.y_test == c)
            want = per_class + (1 if c < extra else 0)
            if want == 0:
                continue
            picks.append(rng.choice(pool, size=want, replace=pool.size < want))
        return rng.permutation(np.concatenate(picks))


def gaussian_blobs(classes=10, shape=(1, 8, 8), train_per_class=205,
                   test_per_class=51, noise=1.0, seed=0):
    """Ten-blob toy classification: one Gaussian cluster per class.

    Class means are standard-normal patterns; samples add isotropic noise.
    Everything derives from ``seed``, so two calls are bit-identical.
    """
    rng = np.random.default_rng(seed)
    dim = int(np.prod(shape))
    means = rng.normal(0.0, 1.0, size=(classes, dim))

    def split(per_class):
        xs, ys = [], []
        for c in range(classes):
            xs.append(means[c] + rng.normal(0.0, noise, size=(per_class, dim)))
            ys.append(np.full(per_class, c, dtype=np.int64))
        x = np.concatenate(xs).reshape(-1, *shape)
        y = np.concatenate(ys)
        order = rng.permutation(len(y))
        return x[order], y[order]

    x_tr, y_tr = split(train_per_class)
    x_te, y_te = split(test_per_class)
    return Dataset(x_tr, y_tr, x_te, y_te, classes)


def _read_idx(path):
    with open(path, "rb") as fh:
        blob = fh.read()
    dtypes = {0x08: np.uint8, 0x09: np.int8, 0x0B: ">i2", 0x0C: ">i4",
              0x0D: ">f4", 0x0E: ">f8"}
    if (len(blob) < 4 or blob[0] != 0 or blob[1] != 0 or blob[2] not in dtypes
            or len(blob) < 4 + 4 * blob[3]):
        raise ValueError(f"{path}: not an IDX file (magic, dtype or dims)")
    dtype, head = np.dtype(dtypes[blob[2]]), 4 + 4 * blob[3]
    dims = struct.unpack_from(f">{blob[3]}I", blob, 4)
    if len(blob) - head != np.prod(dims, dtype=np.int64) * dtype.itemsize:
        raise ValueError(f"{path}: the data bytes do not fill dims {dims}")
    return np.frombuffer(blob, dtype=dtype, offset=head).reshape(dims)


def load_idx_dataset(train_images, train_labels, test_images, test_labels):
    """MNIST-style dataset from four IDX files; images become (1, H, W), their
    pixels scaled from [0, 255] to [0, 1].  A ValueError names a file that is
    no IDX file, or holds images not 3-D or labels not 1-D, 1 per image, >= 0."""
    split = []
    for images, labels in ((train_images, train_labels),
                           (test_images, test_labels)):
        x, y = _read_idx(images), _read_idx(labels)
        if x.ndim != 3 or y.ndim != 1 or len(x) != len(y):
            raise ValueError(f"{images}, {labels}: images {x.shape}, labels "
                             f"{y.shape}; want (n, height, width) and (n,)")
        if y.min(initial=0) < 0:
            raise ValueError(f"{labels}: label {y.min()} is negative")
        split += [x[:, None, :, :].astype(np.float64) / 255.0,
                  y.astype(np.int64)]
    x_tr, y_tr, x_te, y_te = split
    classes = int(max(y_tr.max(initial=-1), y_te.max(initial=-1))) + 1
    return Dataset(x_tr, y_tr, x_te, y_te, classes)
