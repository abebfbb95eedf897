"""Dual-function radar/communication UAV simulation toolkit.

Beam synthesis under sidelobe/EIRP/nulling constraints along UAV
trajectories, a sub-THz air-to-ground channel, and two small feedforward
networks that learn the optimizer's beam weights and the station association.
"""
