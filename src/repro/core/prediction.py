"""Prediction of the lagger's signal values.

During run-ahead the leader must supply, for every cycle, the values it would
normally read from the lagger over the channel.  The paper classifies those
values (Section 3, Figure 1):

* **bus request signals** of lagger-side masters: individually non-
  predictable, but the *arbitration result* they feed changes only
  occasionally, so the request vector is predicted from its previous value;
* **address / control** of a lagger-side active master: predictable, because
  within a burst the address increments (or wraps) linearly and the control
  signals stay constant -- predicted by extrapolating the observed burst;
* **responses** of a lagger-side active slave: predictable with a simple
  producer-consumer model of the slave's readiness;
* **read / write data**: non-predictable.  If the leader needs lagger-side
  data it cannot proceed optimistically and must synchronise (this is why
  the operating mode should put the data *source* in the leader domain);
* **interrupts** and other non-bus boundary signals: treated like MSABS
  elements, predicted from their previous value.

The :class:`LaggerPredictor` combines these per-class predictors.  For the
paper's accuracy-sweep experiments a :class:`ForcedAccuracyModel` can inject
prediction failures at a target rate; injected failures never corrupt
functional state (the rollback machinery repairs them like any real
misprediction), they only add the corresponding timing penalty.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, Optional

from ..ahb.burst import next_beat_address
from ..ahb.half_bus import BoundaryDrive, NeededFields
from ..ahb.signals import AddressPhase, DataPhaseResult, HTrans
from ..sim.component import ClockedComponent


#: Shared empty maps for predictions that carry no requests / interrupts
#: (treated as immutable by every BoundaryDrive consumer).
_EMPTY_REQUESTS: Dict[int, bool] = {}
_EMPTY_INTERRUPTS: Dict[str, bool] = {}


@dataclass(slots=True)
class PredictionRecord:
    """The prediction made for one run-ahead cycle.

    Only the fields the leader actually needed that cycle are populated; the
    lagger checks exactly those fields against its real values.
    """

    cycle: int
    requests: Optional[Dict[int, bool]] = None
    address_phase: Optional[AddressPhase] = None
    hwdata: Optional[int] = None
    response: Optional[DataPhaseResult] = None
    interrupts: Optional[Dict[str, bool]] = None
    forced_failure: bool = False

    def check(
        self,
        actual_drive: BoundaryDrive,
        actual_response: Optional[DataPhaseResult],
    ) -> tuple[bool, str]:
        """Compare this prediction against the lagger's actual values.

        Returns ``(matches, reason)`` where ``reason`` describes the first
        mismatching field (empty string on success).
        """
        if self.forced_failure:
            return False, "injected prediction failure"
        if self.requests is not None:
            for master_id, predicted in self.requests.items():
                actual = actual_drive.requests.get(master_id, False)
                if actual != predicted:
                    return False, (
                        f"bus request of master {master_id}: predicted {predicted}, "
                        f"actual {actual}"
                    )
        if self.interrupts is not None:
            for name, predicted in self.interrupts.items():
                actual = actual_drive.interrupts.get(name, False)
                if actual != predicted:
                    return False, f"interrupt {name!r}: predicted {predicted}, actual {actual}"
        if self.address_phase is not None:
            actual_phase = actual_drive.address_phase
            if actual_phase is None:
                if self.address_phase.is_active:
                    return False, "predicted an active address phase but the lagger drove none"
            elif not _address_phases_equal(self.address_phase, actual_phase):
                return False, (
                    f"address phase: predicted {self.address_phase.haddr:#x}/"
                    f"{self.address_phase.htrans.name}, actual {actual_phase.haddr:#x}/"
                    f"{actual_phase.htrans.name}"
                )
        if self.hwdata is not None:
            if actual_drive.hwdata != self.hwdata:
                return False, (
                    f"write data: predicted {self.hwdata:#x}, actual "
                    f"{actual_drive.hwdata if actual_drive.hwdata is not None else 'none'}"
                )
        if self.response is not None:
            if actual_response is None:
                return False, "predicted a slave response but the lagger produced none"
            if not _responses_equal(self.response, actual_response):
                return False, (
                    f"slave response: predicted ready={self.response.hready}/"
                    f"{self.response.hresp.name}, actual ready={actual_response.hready}/"
                    f"{actual_response.hresp.name}"
                )
        return True, ""

    def same_values(self, other: "PredictionRecord") -> bool:
        """True when both records predict exactly the same values (the cycle
        stamp and the forced-failure flag are ignored)."""
        return (
            self.requests == other.requests
            and self.address_phase == other.address_phase
            and self.hwdata == other.hwdata
            and self.response == other.response
            and self.interrupts == other.interrupts
        )

    def equals_actual(
        self,
        actual_drive: BoundaryDrive,
        actual_response: Optional[DataPhaseResult],
    ) -> bool:
        """Strict test: are the actual values exactly what the leader consumed?

        Unlike :meth:`check` this ignores ``forced_failure`` and compares every
        field the leader's merge reads, inactive address phases included, so a
        ``True`` means a cycle run on the actual values is identical to the
        one run on the prediction.
        """
        requests = self.requests if self.requests is not None else _EMPTY_REQUESTS
        interrupts = self.interrupts if self.interrupts is not None else _EMPTY_INTERRUPTS
        return (
            requests == actual_drive.requests
            and self.address_phase == actual_drive.address_phase
            and self.hwdata == actual_drive.hwdata
            and interrupts == actual_drive.interrupts
            and self.response == actual_response
        )

    def as_boundary_values(
        self, cycle: int
    ) -> tuple[BoundaryDrive, Optional[DataPhaseResult]]:
        """Convert the prediction into the remote-value containers the
        half bus model consumes.

        The request/interrupt maps are shared by reference: ``predict()``
        builds fresh dicts that are owned by this record, and every consumer
        of a :class:`BoundaryDrive` treats its maps as read-only (the merge
        step copies before mutating).  This keeps the run-ahead hot path from
        re-copying two dicts per predicted cycle.
        """
        drive = BoundaryDrive(
            cycle=cycle,
            requests=self.requests if self.requests is not None else _EMPTY_REQUESTS,
            address_phase=self.address_phase,
            hwdata=self.hwdata,
            interrupts=self.interrupts if self.interrupts is not None else _EMPTY_INTERRUPTS,
        )
        return drive, self.response


def _address_phases_equal(a: AddressPhase, b: AddressPhase) -> bool:
    # Two inactive phases (IDLE / BUSY) are interchangeable regardless of the
    # stale address and control values they carry.
    if not a.is_active and not b.is_active:
        return True
    return (
        a.haddr == b.haddr
        and a.htrans == b.htrans
        and a.hwrite == b.hwrite
        and a.hsize == b.hsize
        and a.hburst == b.hburst
        and a.master_id == b.master_id
    )


def _responses_equal(a: DataPhaseResult, b: DataPhaseResult) -> bool:
    if a.hready != b.hready or a.hresp != b.hresp:
        return False
    # Read data is compared only when the prediction claims to know it (the
    # standard predictors never predict read data -- it is non-predictable).
    if a.hrdata is not None and a.hrdata != b.hrdata:
        return False
    return True


@dataclass
class PredictionStats:
    """Prediction accuracy accounting."""

    predictions_made: int = 0
    predictions_checked: int = 0
    predictions_correct: int = 0
    real_failures: int = 0
    injected_failures: int = 0
    unpredictable_cycles: int = 0

    @property
    def accuracy(self) -> float:
        """Fraction of checked predictions that were correct."""
        if self.predictions_checked == 0:
            return 1.0
        return self.predictions_correct / self.predictions_checked

    def as_dict(self) -> dict:
        return {
            "predictions_made": self.predictions_made,
            "predictions_checked": self.predictions_checked,
            "predictions_correct": self.predictions_correct,
            "real_failures": self.real_failures,
            "injected_failures": self.injected_failures,
            "unpredictable_cycles": self.unpredictable_cycles,
            "accuracy": self.accuracy,
        }


class ForcedAccuracyModel:
    """Injects prediction failures so a target accuracy can be swept.

    Each prediction is independently marked as a forced failure with
    probability ``1 - accuracy``, using a dedicated seeded RNG so runs are
    reproducible.  ``accuracy=1.0`` disables injection entirely.
    """

    def __init__(self, accuracy: float, seed: int = 2005) -> None:
        if not 0.0 <= accuracy <= 1.0:
            raise ValueError(f"accuracy must be within [0, 1], got {accuracy}")
        self.accuracy = accuracy
        self._rng = random.Random(seed)

    def should_fail(self) -> bool:
        if self.accuracy >= 1.0:
            return False
        return self._rng.random() >= self.accuracy


class LaggerPredictor(ClockedComponent):
    """Predicts the lagger domain's boundary values for the leader.

    The predictor's internal state (last observed request vector, burst
    tracking of the lagger-side active master, per-slave readiness model,
    last interrupt values) is itself rollback state: it lives in the leader
    domain and is captured / restored along with the leader's checkpoint.
    """

    def __init__(
        self,
        name: str,
        remote_master_ids: list[int],
        forced_accuracy: Optional[ForcedAccuracyModel] = None,
        predict_new_remote_bursts: bool = False,
    ) -> None:
        super().__init__(name)
        self.remote_master_ids = list(remote_master_ids)
        self.forced_accuracy = forced_accuracy
        self.predict_new_remote_bursts = predict_new_remote_bursts
        self.stats = PredictionStats()
        # last-value predictors
        self._last_requests: Dict[int, bool] = {mid: False for mid in self.remote_master_ids}
        self._last_interrupts: Dict[str, bool] = {}
        # burst extrapolation of the lagger-side active master
        self._last_remote_phase: Optional[AddressPhase] = None
        self._burst_start_addr: Optional[int] = None
        # per-slave readiness (producer-consumer) model: expected wait states
        self._slave_wait_states: Dict[int, int] = {}
        self._current_wait_run: int = 0

    def evaluate(self, cycle: int) -> None:  # predictor is not clock driven
        return

    # -- learning from observed (actual) lagger values -------------------------------
    def observe(
        self,
        drive: BoundaryDrive,
        response: Optional[DataPhaseResult],
        slave_id: Optional[int] = None,
    ) -> None:
        """Update predictor state from actual lagger values.

        Called whenever real lagger values become known to the leader:
        during conservative cycles, at the end of a follow-up, and during
        roll-forth (where the previously validated predictions are re-used).
        Runs once per run-ahead cycle, so every branch early-outs on the
        (common) empty inputs.
        """
        requests = drive.requests
        if requests:
            last_requests = self._last_requests
            for master_id in self.remote_master_ids:
                if master_id in requests:
                    last_requests[master_id] = requests[master_id]
        if drive.interrupts:
            self._last_interrupts.update(drive.interrupts)
        if drive.address_phase is not None:
            self._observe_address_phase(drive.address_phase)
        if response is not None and slave_id is not None:
            self._observe_response(slave_id, response)

    def _observe_address_phase(self, phase: AddressPhase) -> None:
        if phase.htrans is HTrans.NONSEQ:
            self._burst_start_addr = phase.haddr
            self._last_remote_phase = phase
        elif phase.htrans is HTrans.SEQ:
            self._last_remote_phase = phase
        else:
            self._last_remote_phase = phase

    def _observe_response(self, slave_id: int, response: DataPhaseResult) -> None:
        if response.hready:
            self._slave_wait_states[slave_id] = self._current_wait_run
            self._current_wait_run = 0
        else:
            self._current_wait_run += 1

    # -- predictability test -----------------------------------------------------------
    def can_predict(self, needed: NeededFields) -> bool:
        """Can the leader proceed optimistically this cycle?

        Data values (write data, read data) are non-predictable; a remote
        master starting an unknown new burst is also treated as
        non-predictable unless ``predict_new_remote_bursts`` is set (in which
        case an IDLE continuation is guessed and the follow-up check decides).
        """
        if not needed.data_free:
            return False
        if needed.needs_remote_address_phase:
            if self._last_remote_phase is None and not self.predict_new_remote_bursts:
                return False
        return True

    def is_idle_fixed_point(self, needed: NeededFields) -> bool:
        """True when consecutive :meth:`predict` calls for ``needed`` would
        keep producing the same all-idle prediction (modulo the forced-failure
        flag and the cycle stamp) and :meth:`observe` of that prediction's own
        values would not change predictor state.

        This is the predictor half of the batch-stepping quiescence test:
        requests all False (so the predicted request vector is a stable
        all-False map that also leaves the arbitration fixed point intact),
        no remembered interrupts (a remembered-but-deasserted interrupt map
        would still be attached to predictions and merged into the bus
        values), and -- when an address phase is needed -- a remembered
        *inactive* phase from the currently granted remote master, which
        ``_predict_address_phase`` returns unchanged cycle after cycle.
        """
        if not needed.data_free:
            return False
        if self._last_interrupts:
            return False
        if needed.needs_remote_requests and any(self._last_requests.values()):
            return False
        if needed.needs_remote_address_phase:
            last = self._last_remote_phase
            if last is None or last.is_active:
                return False
            if needed.granted_master_id is not None and last.master_id != needed.granted_master_id:
                return False
        if needed.needs_remote_response:
            return False
        return True

    # -- prediction -------------------------------------------------------------------
    def predict(self, cycle: int, needed: NeededFields) -> PredictionRecord:
        """Produce the prediction for one run-ahead cycle."""
        forced_accuracy = self.forced_accuracy
        record = PredictionRecord(
            cycle=cycle,
            requests=dict(self._last_requests) if needed.needs_remote_requests else None,
            address_phase=(
                self._predict_address_phase(needed.granted_master_id)
                if needed.needs_remote_address_phase
                else None
            ),
            response=self._predict_response() if needed.needs_remote_response else None,
            interrupts=dict(self._last_interrupts) if self._last_interrupts else None,
            forced_failure=(
                forced_accuracy is not None and forced_accuracy.should_fail()
            ),
        )
        self.stats.predictions_made += 1
        return record

    def _predict_address_phase(self, granted_master_id: Optional[int]) -> AddressPhase:
        last = self._last_remote_phase
        fallback_master = granted_master_id if granted_master_id is not None else (
            self.remote_master_ids[0] if self.remote_master_ids else 0
        )
        if last is None:
            # Nothing observed yet: guess the remote master drives an idle
            # transfer.  The follow-up check decides whether the guess held.
            return AddressPhase.idle_phase(fallback_master)
        if granted_master_id is not None and last.master_id != granted_master_id:
            # The granted remote master is not the one whose burst we tracked;
            # its first beat cannot be extrapolated, so guess idle.
            return AddressPhase.idle_phase(fallback_master)
        if not last.is_active:
            # The remote master was idle; predict it stays idle.
            return last
        fixed_beats = last.hburst.beats
        start = self._burst_start_addr if self._burst_start_addr is not None else last.haddr
        if fixed_beats is not None:
            issued = (last.haddr - start) // last.hsize.bytes + 1 if not last.hburst.is_wrapping else None
            if issued is not None and issued >= fixed_beats:
                # Burst finished; predict the master goes idle.
                return last.idle()
        next_addr = next_beat_address(last.haddr, last.hburst, last.hsize, start)
        predicted = AddressPhase(
            master_id=last.master_id,
            haddr=next_addr,
            htrans=HTrans.SEQ,
            hwrite=last.hwrite,
            hsize=last.hsize,
            hburst=last.hburst,
            hprot=last.hprot,
        )
        return predicted

    def _predict_response(self) -> DataPhaseResult:
        # Producer-consumer readiness: predict ready (OKAY) -- the common
        # steady-state case.  Learned wait-state patterns could refine this;
        # the simple model already captures the paper's argument.  The
        # parameterless OKAY response is interned (frozen dataclass).
        return DataPhaseResult.okay()

    # -- follow-up bookkeeping -------------------------------------------------------------
    def record_check(self, matched: bool, injected: bool) -> None:
        self.stats.predictions_checked += 1
        if matched:
            self.stats.predictions_correct += 1
        elif injected:
            self.stats.injected_failures += 1
        else:
            self.stats.real_failures += 1

    def record_unpredictable(self) -> None:
        self.stats.unpredictable_cycles += 1

    # -- rollback support -------------------------------------------------------------------
    def snapshot_state(self) -> dict:
        """Owned payload: the last observed ``AddressPhase`` is frozen and
        stored by reference, the dicts are fresh copies."""
        return {
            "last_requests": dict(self._last_requests),
            "last_interrupts": dict(self._last_interrupts),
            "last_remote_phase": self._last_remote_phase,
            "burst_start_addr": self._burst_start_addr,
            "slave_wait_states": dict(self._slave_wait_states),
            "current_wait_run": self._current_wait_run,
        }

    def restore_state(self, state: dict) -> None:
        self._last_requests = dict(state["last_requests"])
        self._last_interrupts = dict(state["last_interrupts"])
        self._last_remote_phase = state["last_remote_phase"]
        self._burst_start_addr = state["burst_start_addr"]
        self._slave_wait_states = dict(state["slave_wait_states"])
        self._current_wait_run = state["current_wait_run"]

    def reset(self) -> None:
        super().reset()
        self._last_requests = {mid: False for mid in self.remote_master_ids}
        self._last_interrupts = {}
        self._last_remote_phase = None
        self._burst_start_addr = None
        self._slave_wait_states = {}
        self._current_wait_run = 0
        self.stats = PredictionStats()
