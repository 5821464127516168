"""Dual-mode IEEE 802.15.4 baseband modem.

An O-QPSK transmitter with half-sine pulse shaping, an impairment channel,
two receiver chains (coherent O-QPSK and non-coherent differential-detection
MSK), an SNR-driven mode controller, operation-count instrumentation, and a
Monte Carlo sweep harness with a CLI front end.  Import the submodules
(`dualmodem.rx_qpsk`, `dualmodem.sim_harness`, ...) directly.
"""

__version__ = "0.1.0"
