"""repro — reproduction of "A Formal Verification Methodology for
Checking Data Integrity" (Umezawa & Shimizu, DATE 2004).

Subpackages
-----------
``repro.rtl``
    RTL substrate: expression IR, module hierarchy, parity protection,
    the Verifiable-RTL error-injection transform, elaboration,
    bit-blasting (AIG) and Verilog emission.
``repro.sim``
    Cycle-accurate logic simulator, testbenches, stimulus and the
    simulation bug-hunt campaign (the paper's baseline).
``repro.formal``
    From-scratch formal engines: CDCL SAT, BMC, k-induction, ROBDDs,
    forward/backward reachability, POBDD partitioned reachability.
``repro.psl``
    PSL subset front-end: AST, parser, Python builder, vunits, and
    compilation of properties into safety monitors.
``repro.core``
    The paper's methodology: stereotype property generation (P0/P1/P2),
    leaf-module scoping, divide-and-conquer property partitioning, and
    the formal verification campaign.
``repro.orchestrate``
    Job-based campaign orchestration: the declarative, serializable
    ``CampaignConfig``, check-job planning, the serial executor and the
    socket-fleet parallel executor, per-job engine portfolios, the
    fingerprint-keyed incremental result cache (a SQLite store
    concurrent campaigns share), crash-safe checkpoint/resume, and
    shared incremental SAT sessions.
``repro.cli``
    The ``python -m repro`` command line: a whole campaign run,
    resumed, or inspected from one TOML config file.
``repro.synth``
    Gate-level lowering, area model and static timing analysis for the
    design-impact study (Table 4).
``repro.chip``
    The synthetic server-platform component chip (blocks A-E) with the
    paper's seven seeded defects.
"""

__version__ = "1.0.0"
