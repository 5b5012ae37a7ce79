"""Model architectures evaluated in the paper.

Public names load on first access (DESIGN.md §2), and
:func:`build_model` imports only the family it builds."""

from repro import _lazy_exports

__getattr__, __dir__, __all__ = _lazy_exports(__name__, {
    "mlp": ["MLP"],
    "resnet": ["BasicBlock", "Bottleneck", "ResNet", "resnet18", "resnet50", "wide_resnet50_2"],
    "vgg": ["VGG19", "vgg19"],
    "deit": ["VisionTransformer", "deit_base", "deit_micro", "deit_small", "deit_tiny"],
    "resmlp": ["ResMLP", "resmlp_micro", "resmlp_s24", "resmlp_s36"],
    "bert": ["BertForMaskedLM", "BertForSequenceClassification", "BertModel",
             "bert_base", "bert_micro", "bert_mini"],
    "registry": ["available_models", "build_model"],
})
