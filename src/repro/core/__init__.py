"""Core lottery-scheduling mechanisms: the paper's primary contribution.

Exports the ticket/currency object model (section 3-4), the lottery
draw structures (section 4.2), compensation tickets (section 3.4),
ticket transfers (sections 3.1/4.6), inflation controllers (sections
3.2/5.2), inverse lotteries (section 6.2), and the Park-Miller PRNG the
prototype used (Appendix A).
"""

from repro._exports import lazy_exports

__all__ = [
    "BottleneckManager",
    "CompensationManager",
    "Currency",
    "DrawStats",
    "ErrorDrivenInflator",
    "Ledger",
    "ListLottery",
    "ResourceBudget",
    "MODULUS",
    "MULTIPLIER",
    "ParkMillerPRNG",
    "Ticket",
    "TicketHolder",
    "TransferHandle",
    "TreeLottery",
    "deflate",
    "fastrand",
    "hold_lottery",
    "inflate",
    "inverse_lottery",
    "inverse_probabilities",
    "proportional_decide",
    "set_share",
    "split_transfer",
    "transfer_funding",
    "weighted_inverse_lottery",
]

__getattr__ = lazy_exports(globals(), {
    "CompensationManager": ".compensation",
    "ErrorDrivenInflator": ".inflation", "deflate": ".inflation",
    "inflate": ".inflation", "set_share": ".inflation",
    "inverse_lottery": ".inverse", "inverse_probabilities": ".inverse",
    "weighted_inverse_lottery": ".inverse",
    "BottleneckManager": ".multiresource", "ResourceBudget": ".multiresource",
    "proportional_decide": ".multiresource",
    "DrawStats": ".lottery", "ListLottery": ".lottery",
    "TreeLottery": ".lottery", "hold_lottery": ".lottery",
    "MODULUS": ".prng", "MULTIPLIER": ".prng", "ParkMillerPRNG": ".prng",
    "fastrand": ".prng",
    "Currency": ".tickets", "Ledger": ".tickets", "Ticket": ".tickets",
    "TicketHolder": ".tickets",
    "TransferHandle": ".transfers", "split_transfer": ".transfers",
    "transfer_funding": ".transfers",
})
