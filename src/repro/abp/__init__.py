"""The alternating-bit protocol (ABP): a third fault-injection target.

The paper argues its approach applies uniformly to "application-level
protocols, interprocess communication protocols, network protocols, or
device layer protocols".  This package backs that claim with a protocol
the paper did not test: a textbook stop-and-wait ARQ whose correctness
depends on exactly the properties the PFI layer attacks (loss tolerance
via retransmission, duplicate suppression via the alternating bit).

Like the GMP, it ships with a findable bug:
``AbpReceiver(check_bit=False)`` delivers duplicates when a retransmission
arrives -- invisible on a clean network, exposed by a single ACK-drop
filter script (see ``tests/integration/test_abp.py`` and
``examples/abp_bug_demo.py``).
"""

from repro.abp.protocol import ABP_SCHEMA, AbpFrame, AbpReceiver, AbpSender

__all__ = ["ABP_SCHEMA", "AbpFrame", "AbpReceiver", "AbpSender"]
