"""The Distributed Virtual Communication Machine (DVCM).

Host-side API (memory-mapped instruction calls over I2O messages), NI-side
runtime with run-time-loadable extension modules, and the media-scheduler
extension the paper builds on top.
"""

from .api import VCMError, VCMInterface, VCMPeerDown, VCMTimeout
from .extension import ExtensionModule, MediaSchedulerExtension
from .messages import HEADER_WORDS, I2OMessage, I2OReply, MessageQueuePair
from .runtime import VCMRuntime

__all__ = [
    "VCMInterface",
    "VCMError",
    "VCMTimeout",
    "VCMPeerDown",
    "VCMRuntime",
    "ExtensionModule",
    "MediaSchedulerExtension",
    "I2OMessage",
    "I2OReply",
    "MessageQueuePair",
    "HEADER_WORDS",
]
