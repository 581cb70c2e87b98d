(** Verification layer: static plan checking, WAL protocol auditing, and
    runtime invariant sanitizers, unified behind {!Audit}.

    The plan checker lives in {!Mmdb_planner.Plan_check} (the planner
    runs it before execution) and the diagnostic type in
    {!Mmdb_util.Diag}; both are re-exported here so [Mmdb_verify] is the
    one-stop namespace for tooling. *)

module Diag = Mmdb_util.Diag
module Plan_check = Mmdb_planner.Plan_check
module Log_check = Log_check
module Pool_check = Pool_check
module Schedule = Mmdb_recovery.Schedule
module Txn_check = Txn_check
module Txn_fuzz = Txn_fuzz
module Torture = Torture
module Model_check = Model_check
module Race_check = Race_check
module Lint = Lint
module Audit = Audit

(** Every stable diagnostic code with a one-line description, warnings
    marked "(warning)": the single catalogue.  [mmdb_cli codes] renders
    it as CODES.md, which [dune runtest] diffs against the committed
    copy. *)
let code_catalogue =
  Plan_check.code_catalogue @ Log_check.code_catalogue
  @ Pool_check.code_catalogue @ Txn_check.code_catalogue
  @ Audit.code_catalogue @ Model_check.code_catalogue
  @ Race_check.code_catalogue @ Lint.code_catalogue
  @ Mmdb_overload.Overload.code_catalogue @ Mmdb_fault.Fault.code_catalogue
