"""Key-insulated mutual RFID authentication.

A library in four layers, one module each, every layer importing only the
ones below it: fixed-width bitstrings, hashes, PRNG and op meters
(:mod:`kimap.bits`); the protocol algorithms and tag/server state machines
(:mod:`kimap.protocol`); the adversarial channel simulator and ``World``
(:mod:`kimap.channel`); and the privacy-game harness (:mod:`kimap.games`).
Beside the protocol sit the session cost model (:mod:`kimap.costs`) and the
kimapdb file format (:mod:`kimap.storage`); :mod:`kimap.cli` is the
command-line front end. Import each name from the module that defines it:
the package re-exports nothing, so importing one layer loads only the
layers below it.
"""
