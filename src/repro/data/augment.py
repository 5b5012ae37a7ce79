"""Image augmentation transforms (numpy, CHW layout).

These reproduce the standard CIFAR/SVHN/ImageNet pipelines the paper trains
with: channel-wise normalisation, random horizontal flip and random crop with
reflection padding.  Transforms are plain callables composed with
:class:`Compose`.

Two application paths exist:

* the legacy per-sample path — ``transform(image)`` inside a ``Dataset`` —
  draws from a stateful sequential generator, so the augmentation a sample
  receives depends on how many samples were processed before it;
* the vectorized batch path — ``transform.apply_batch(images, sample_ids,
  epoch)`` — operates on a stacked ``(N, C, H, W)`` array and draws its
  randomness from counter-based streams keyed on ``(root_seed, epoch,
  transform_stream, sample_id)`` (see :mod:`repro.utils.seed`).  The bits a
  sample receives are a pure function of its identity, so batch size,
  iteration order and data-parallel sharding cannot change them — the
  property the streaming pipeline's bit-parity guarantee rests on.

The batch path is bit-identical to applying itself on single-sample batches:
flips and crops are exact gathers and normalisation is elementwise, so
stacking commutes with every operation.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence

import numpy as np

from repro.utils import get_rng, sample_integers, sample_uniforms

# Channel statistics used by the paper for CIFAR/SVHN/ImageNet.
IMAGENET_MEAN = np.array([0.485, 0.456, 0.406], dtype=np.float32)
IMAGENET_STD = np.array([0.229, 0.224, 0.225], dtype=np.float32)


def supports_batch(transform: Callable) -> bool:
    """True when ``transform`` offers the vectorized counter-based path."""
    return hasattr(transform, "apply_batch")


class Compose:
    """Apply transforms in sequence (per-sample and batch paths)."""

    def __init__(self, transforms: Sequence[Callable[[np.ndarray], np.ndarray]]):
        self.transforms = list(transforms)

    def __call__(self, image: np.ndarray) -> np.ndarray:
        for transform in self.transforms:
            image = transform(image)
        return image

    def apply_batch(self, images: np.ndarray, sample_ids: Optional[np.ndarray] = None,
                    epoch: int = 0) -> np.ndarray:
        """Vectorized application over a stacked ``(N, ...)`` batch.

        Transforms without an ``apply_batch`` method fall back to a
        per-sample loop (correct, but without the counter-based determinism
        guarantee for their randomness).
        """
        for transform in self.transforms:
            if supports_batch(transform):
                images = transform.apply_batch(images, sample_ids, epoch)
            else:
                images = np.stack([transform(image) for image in images])
        return images


class Normalize:
    """Per-channel standardisation of a CHW image (or an NCHW batch)."""

    def __init__(self, mean=IMAGENET_MEAN, std=IMAGENET_STD):
        self.mean = np.asarray(mean, dtype=np.float32).reshape(-1, 1, 1)
        self.std = np.asarray(std, dtype=np.float32).reshape(-1, 1, 1)

    def __call__(self, image: np.ndarray) -> np.ndarray:
        channels = image.shape[0]
        mean = self.mean[:channels]
        std = self.std[:channels]
        return (image - mean) / std

    def apply_batch(self, images: np.ndarray, sample_ids: Optional[np.ndarray] = None,
                    epoch: int = 0) -> np.ndarray:
        channels = images.shape[1]
        mean = self.mean[None, :channels]
        std = self.std[None, :channels]
        # Elementwise, so bit-identical to the per-sample path.
        return (images - mean) / std


class RandomHorizontalFlip:
    """Flip the image left-right with probability ``p``.

    ``seed_offset`` doubles as the transform's counter-RNG stream id on the
    batch path, so two flip transforms in one pipeline draw independent bits.
    """

    def __init__(self, p: float = 0.5, seed_offset: int = 101):
        self.p = p
        self.seed_offset = seed_offset
        self._rng = get_rng(offset=seed_offset)

    def __call__(self, image: np.ndarray) -> np.ndarray:
        if self._rng.random() < self.p:
            return image[:, :, ::-1].copy()
        return image

    def apply_batch(self, images: np.ndarray, sample_ids: Optional[np.ndarray] = None,
                    epoch: int = 0) -> np.ndarray:
        sample_ids = _resolve_ids(sample_ids, len(images))
        uniforms = sample_uniforms(sample_ids, epoch=epoch, stream=self.seed_offset)[:, 0]
        flip = uniforms < self.p
        if not flip.any():
            return images
        out = images.copy()
        out[flip] = out[flip][..., ::-1]
        return out


class RandomCrop:
    """Pad by ``padding`` pixels (reflect) and take a random crop of the original size."""

    def __init__(self, size: int, padding: int = 4, seed_offset: int = 103):
        self.size = size
        self.padding = padding
        self.seed_offset = seed_offset
        self._rng = get_rng(offset=seed_offset)

    def __call__(self, image: np.ndarray) -> np.ndarray:
        pad = self.padding
        padded = np.pad(image, ((0, 0), (pad, pad), (pad, pad)), mode="reflect")
        max_offset = padded.shape[1] - self.size
        top = int(self._rng.integers(0, max_offset + 1))
        left = int(self._rng.integers(0, max_offset + 1))
        return padded[:, top:top + self.size, left:left + self.size].copy()

    def apply_batch(self, images: np.ndarray, sample_ids: Optional[np.ndarray] = None,
                    epoch: int = 0) -> np.ndarray:
        sample_ids = _resolve_ids(sample_ids, len(images))
        pad = self.padding
        padded = np.pad(images, ((0, 0), (0, 0), (pad, pad), (pad, pad)), mode="reflect")
        max_offset = padded.shape[2] - self.size
        offsets = sample_integers(sample_ids, max_offset + 1, epoch=epoch,
                                  stream=self.seed_offset, draws=2)
        top, left = offsets[:, 0], offsets[:, 1]
        size = self.size
        # Strided slice-copies into a preallocated batch beat a fancy-index
        # gather by a wide margin (the gather materialises a transposed
        # intermediate); both are exact copies, so bitwise output is equal.
        out = np.empty(images.shape[:2] + (size, size), dtype=images.dtype)
        for i in range(len(images)):
            out[i] = padded[i, :, top[i]:top[i] + size, left[i]:left[i] + size]
        return out


def _resolve_ids(sample_ids: Optional[np.ndarray], n: int) -> np.ndarray:
    """Default to positional ids when the caller tracks no sample identity."""
    if sample_ids is None:
        return np.arange(n)
    sample_ids = np.asarray(sample_ids)
    if len(sample_ids) != n:
        raise ValueError(
            f"sample_ids has {len(sample_ids)} entries for a batch of {n} images")
    return sample_ids


def standard_train_transform(image_size: int, flip: bool = True, crop_padding: int = 2) -> Compose:
    """The CIFAR-style training pipeline: random crop + flip + normalise."""
    transforms: List[Callable] = [RandomCrop(image_size, padding=crop_padding)]
    if flip:
        transforms.append(RandomHorizontalFlip())
    transforms.append(Normalize())
    return Compose(transforms)


def standard_eval_transform() -> Compose:
    """Evaluation pipeline: normalisation only."""
    return Compose([Normalize()])
