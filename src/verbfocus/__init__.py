"""Verb-focused contrastive training at desk scale.

Dual lookup-table encoders trained with InfoNCE plus generated verb-swapped
hard negatives, calibrated so no verb phrase is over-represented as a
negative, and an auxiliary video-to-verb-phrase alignment term.
"""

__version__ = "0.1.0"
