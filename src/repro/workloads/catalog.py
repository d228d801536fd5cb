"""The benchmark catalog: names, categories and named sets, as literals.

What a command needs to *name* a benchmark — validate ``--bench``,
order figure 6's axis, pick figure 10's pool — without importing the
kernel builders and both compiler back ends behind
:mod:`repro.workloads.suite`.  The suite builds ``BENCHMARKS`` from
this table and refuses to import if its factories disagree with it.

Every set is declared here once; a driver names the set it reports
instead of listing members (report an established set, never a
cherry-picked one).
"""

from collections import namedtuple

#: The paper's Table 1 split, in suite order (figure 10 draws its
#: workloads by index from ``hand``, so the order is part of the
#: result).
CATEGORIES = ("hand", "spec_int", "spec_fp")

SETS = {
    "hand": ("conv", "ct", "genalg", "a2time", "autocor", "basefp",
             "bezier", "dither", "rspeed", "tblook", "802.11b", "8b10b"),
    "spec_int": ("bzip2", "gzip", "mcf", "parser", "twolf", "vpr", "gcc",
                 "perlbmk"),
    "spec_fp": ("mgrid", "applu", "swim", "art", "equake", "ammp"),
    #: The coarse high/low ILP classification the paper uses to order
    #: figure 6's x-axis; everything else is ``low``.
    "high_ilp": ("conv", "ct", "genalg", "autocor", "basefp", "bezier",
                 "tblook", "802.11b", "8b10b", "a2time", "mgrid", "swim",
                 "art", "equake"),
    #: Category- and ILP-spanning subset the golden suite runs (three
    #: hand-optimized, two SPEC-int, two SPEC-fp; high- and low-ILP in
    #: each group): fast enough for tier-1 while still exercising every
    #: simulator path the full sweep does.
    "golden": ("a2time", "ammp", "bzip2", "conv", "dither", "equake",
               "gzip"),
    #: The degradation sweep's default.  These three have monotone
    #: cores->performance curves up to 16 cores (figure 6), so shrinking
    #: the composition can only cost performance and the curve cleanly
    #: isolates the fault cost.  Benchmarks that peak at small
    #: compositions (gzip, dither) can *gain* from losing cores — real
    #: machine behaviour, but it muddies a degradation plot.
    "figR": ("ammp", "conv", "equake"),
}
SETS["all"] = tuple(name for category in CATEGORIES
                    for name in SETS[category])

Entry = namedtuple("Entry", "name category ilp")

#: All 26 benchmarks by name.
CATALOG = {
    name: Entry(name, category,
                "high" if name in SETS["high_ilp"] else "low")
    for category in CATEGORIES for name in SETS[category]
}

