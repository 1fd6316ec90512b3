"""Key-insulated mutual RFID authentication.

A library in four layers: fixed-width bitstring and hash primitives
(:mod:`kimap.bits`), the protocol algorithms and tag/server state machines
(:mod:`kimap.protocol`), an adversarial channel simulator
(:mod:`kimap.channel`), and a mechanized privacy-game harness
(:mod:`kimap.games`), plus a session cost model (:mod:`kimap.costs`) and a
command-line front end (:mod:`kimap.cli`).
"""

from .bits import (
    BitString,
    HashSpec,
    LengthError,
    OpMeter,
    ParameterError,
    Prng,
    concat,
    counter_hash,
    hash2,
    hash2_layout,
    metered,
    prng_next,
    split,
    xor,
)
from .channel import (
    AdversaryAction,
    FaultSchedule,
    ScheduleError,
    SessionTranscript,
    World,
    run_session,
    transcript_line,
)
from .costs import (
    BudgetFinding,
    CostParams,
    CostReport,
    check_budget,
    compute_cost,
)
from .games import (
    BudgetExceededError,
    Distinguisher,
    GameConfig,
    GameError,
    GameResult,
    KeyKnowledge,
    OracleHandle,
    OracleMisuseError,
    Quintuplet,
    RandomGuess,
    RestrictedTranscript,
    lemma1_bijection_check,
    make_distinguisher,
    new_world,
    run_game,
    wilson_halfwidth,
)
from .protocol import (
    AuthResult,
    BroadcastAuth,
    Challenge,
    MasterKey,
    PendingSession,
    ServerAuthCandidate,
    ServerState,
    ServerTagRecord,
    SessionOperands,
    SessionOrderError,
    SlotKeys,
    TagAuth,
    TagNonce,
    TagState,
    auth_server_tag,
    auth_tag_msg,
    check_key_width,
    key_update,
    keygen,
    make_candidate,
    partial_key,
    server_begin,
    server_finalize,
    server_prepare,
    server_timeout,
    session_key,
    session_operands,
    slot_keys,
    tag_respond_nonce,
    tag_verify_and_respond,
)
from .storage import DatabaseFormatError, load_database, load_master, save_database, save_master

__version__ = "0.1.0"
