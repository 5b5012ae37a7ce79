"""Data pipeline: datasets, loaders, augmentation and synthetic task generators."""

from repro.data.dataset import ArrayDataset, DataLoader, Dataset, Subset, train_val_split
from repro.data.augment import (
    Compose,
    Normalize,
    RandomCrop,
    RandomHorizontalFlip,
    standard_eval_transform,
    standard_train_transform,
    supports_batch,
)
from repro.data.pipeline import (
    BatchStream,
    PipelineLoader,
    build_loaders,
    shard_loader,
)
from repro.data.sampler import (
    Sampler,
    SequentialSampler,
    ShardedSampler,
    ShuffledSampler,
)
from repro.data.synthetic import (
    GLUE_TASKS,
    MLMCorpusSpec,
    TextTaskSpec,
    VISION_TASKS,
    VisionTaskSpec,
    make_mlm_corpus,
    make_text_task,
    make_vision_task,
)

__all__ = [
    "ArrayDataset",
    "DataLoader",
    "Dataset",
    "Subset",
    "train_val_split",
    "Compose",
    "Normalize",
    "RandomCrop",
    "RandomHorizontalFlip",
    "standard_eval_transform",
    "standard_train_transform",
    "supports_batch",
    "BatchStream",
    "PipelineLoader",
    "build_loaders",
    "shard_loader",
    "Sampler",
    "SequentialSampler",
    "ShardedSampler",
    "ShuffledSampler",
    "GLUE_TASKS",
    "MLMCorpusSpec",
    "TextTaskSpec",
    "VISION_TASKS",
    "VisionTaskSpec",
    "make_mlm_corpus",
    "make_text_task",
    "make_vision_task",
]
