"""The configuration keys each command reads, and the range of a user seed.

This module imports nothing, so the command line can build its parser from it
without loading numpy or the numerics.
"""

SEED_LIMIT = 2 ** 63  # user seeds, master and frequency-vector, lie in [0, SEED_LIMIT)

# command -> the configuration keys it reads, in the order of its flags: a command
# takes the scenario flags of these keys, and its run id hashes them (read_config)
READS = {"mmin": ("region.dtheta_deg", "bob.theta_deg", "array.f0_hz", "array.spacing")}
READS["kmin"] = (*READS["mmin"], "region.dr_m", "array.delta_f_hz")
READS["region"] = (*READS["kmin"], "array.M", "k_source.k_target", "k_source.label",
                   "k_source.path")
READS["beampattern"] = (*READS["region"], "bob.r_m", "k_source.method", "k_source.seed")
READS["capacity"] = ("array.M", "array.f0_hz", "array.delta_f_hz", "array.spacing", "bob.r_m",
                     "bob.theta_deg", "eve.r_m", "eve.theta_deg", "region.dr_m",
                     "region.dtheta_deg", "power.pt_dbm", "power.sigma_b2_dbm",
                     "power.sigma_e2_dbm", "power.delta", "k_source.k_target",
                     "k_source.method", "k_source.seed", "k_source.label", "k_source.path",
                     "mode")
# a capacity sweep reads no key that its axis sets; the bandwidth axis sets k to a
# 16-entry row of the table at k_source.path
READS["power"] = tuple(key for key in READS["capacity"] if key != "power.pt_dbm")
READS["delta"] = tuple(key for key in READS["capacity"] if key != "power.delta")
READS["bandwidth"] = tuple(key for key in READS["capacity"] if key == "k_source.path"
                           or key != "array.M" and not key.startswith("k_source."))
# the rate solver draws no k and sizes the array itself
READS["rate"] = ("array.f0_hz", "array.spacing", "bob.theta_deg", "region.dtheta_deg",
                 "power.pt_dbm", "power.sigma_b2_dbm", "power.sigma_e2_dbm", "power.delta")
