(** A copy-on-write table with a planted use-after-reclaim bug.

    Writes build their regions exactly as {!Epoch.Packed} does
    ({!Demux.Packed_table.S.Region.bound}), except that {e retiring
    ignores the grace period}: the writer scrubs the replaced region
    the moment it publishes the new one, without consulting reader
    pins.  A reader holding a pinned view across a writer's resize
    therefore probes a poisoned region and misses flows that were
    resident when it pinned.

    Like {!Buggy_table}, this exists to prove the harness catches the
    bug class: {!Epoch_audit.run} reports [wrong = 0] and a non-empty
    retire backlog for the real {!Epoch.Packed}, and [wrong > 0] with a
    permanently empty backlog for this table (asserted in
    [test_check.ml]). *)

include Epoch_audit.TABLE
