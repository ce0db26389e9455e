//! Single-flight `/explain`: concurrent requests for the same model
//! under the same effective configuration share one pipeline run.
//!
//! An explanation depends only on the forest and the configuration
//! (its `D*` seed included), so two requests whose (model, config
//! digest) match would compute the same bits. The first becomes the
//! **leader** and runs the pipeline; later ones become **followers**
//! and wait for it. The table holds a flight only while its leader
//! runs, so nothing is kept after the run: the next request starts a
//! fresh one.
//!
//! A follower adopts the leader's answer only if the leader shared it,
//! which the server does only for an `Ok` run without a budget trip.
//! Otherwise — a typed error, a tripped deadline, a panic — the
//! follower runs its own explain under its own budget. It never waits
//! past its own hard deadline. The leader's [`Lead`] guard completes
//! the flight when it drops, so every path out of the leader's run,
//! unwinding included, releases its followers.

use gef_core::reuse::CacheOutcome;
use gef_core::GefExplanation;
use std::collections::HashMap;
use std::sync::{Arc, Condvar, Mutex};
use std::time::Instant;

/// One pipeline run's result as the server answers from it: the
/// explanation and, when store-backed, how the store supplied it.
pub(crate) type Answer = Arc<(GefExplanation, Option<CacheOutcome>)>;

/// Flight key: model name and effective config digest.
type Key = (String, u64);

/// The table of running flights.
#[derive(Default)]
pub(crate) struct Flights {
    running: Mutex<HashMap<Key, Arc<Flight>>>,
}

/// One leader's run, as its followers see it.
#[derive(Default)]
pub(crate) struct Flight {
    /// `None` while the leader runs; then `Some(answer)`, where `answer`
    /// is `None` if the leader had nothing to share.
    done: Mutex<Option<Option<Answer>>>,
    finished: Condvar,
}

/// What joining the table made of a request.
pub(crate) enum Role<'a> {
    /// Run the pipeline, then [`Lead::share`] a clean answer.
    Leader(Lead<'a>),
    /// Wait on the leader's flight.
    Follower(Arc<Flight>),
}

/// A follower's wait, resolved.
pub(crate) enum Landing {
    /// The leader shared its answer.
    Adopt(Answer),
    /// The leader had nothing to share: run your own explain.
    RunOwn,
    /// The follower's own deadline passed first.
    TimedOut,
}

impl Flights {
    /// Lead the flight for `(model, config_digest)`, or follow the one
    /// already running.
    pub(crate) fn join(&self, model: &str, config_digest: u64) -> Role<'_> {
        let key = (model.to_string(), config_digest);
        let mut running = self.running.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(flight) = running.get(&key) {
            return Role::Follower(Arc::clone(flight));
        }
        let flight = Arc::new(Flight::default());
        running.insert(key.clone(), Arc::clone(&flight));
        Role::Leader(Lead {
            flights: self,
            key,
            flight,
            answer: None,
        })
    }
}

/// The leader's guard: dropping it unlists the flight and wakes every
/// follower with whatever was shared.
pub(crate) struct Lead<'a> {
    flights: &'a Flights,
    key: Key,
    flight: Arc<Flight>,
    answer: Option<Answer>,
}

impl Lead<'_> {
    /// Offer `answer` to the followers.
    pub(crate) fn share(&mut self, answer: Answer) {
        self.answer = Some(answer);
    }
}

impl Drop for Lead<'_> {
    fn drop(&mut self) {
        // Unlist first: a request arriving from here on starts its own
        // run instead of joining a finished one.
        self.flights
            .running
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .remove(&self.key);
        *self.flight.done.lock().unwrap_or_else(|e| e.into_inner()) = Some(self.answer.take());
        self.flight.finished.notify_all();
    }
}

impl Flight {
    /// Wait for the leader until `deadline`.
    pub(crate) fn wait(&self, deadline: Instant) -> Landing {
        let mut done = self.done.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            match &*done {
                Some(Some(answer)) => return Landing::Adopt(Arc::clone(answer)),
                Some(None) => return Landing::RunOwn,
                None => {}
            }
            let now = Instant::now();
            if now >= deadline {
                return Landing::TimedOut;
            }
            done = self
                .finished
                .wait_timeout(done, deadline - now)
                .unwrap_or_else(|e| e.into_inner())
                .0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn far() -> Instant {
        Instant::now() + Duration::from_secs(30)
    }

    #[test]
    fn followers_time_out_on_their_own_deadline() {
        let flights = Flights::default();
        let Role::Leader(_lead) = flights.join("m", 1) else {
            panic!("first request leads");
        };
        let Role::Follower(flight) = flights.join("m", 1) else {
            panic!("same key follows");
        };
        // A different config digest or model is another flight.
        assert!(matches!(flights.join("m", 2), Role::Leader(_)));
        assert!(matches!(flights.join("n", 1), Role::Leader(_)));
        let t = Instant::now();
        assert!(matches!(
            flight.wait(t + Duration::from_millis(20)),
            Landing::TimedOut
        ));
        assert!(t.elapsed() >= Duration::from_millis(20));
    }

    #[test]
    fn a_lead_dropped_without_sharing_releases_followers_to_run_their_own() {
        let flights = Flights::default();
        let lead = flights.join("m", 1);
        let Role::Follower(flight) = flights.join("m", 1) else {
            panic!("same key follows");
        };
        // A panicking leader drops its guard while unwinding.
        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || {
            let _lead = lead;
            panic!("leader panics mid-run");
        }));
        assert!(unwound.is_err());
        assert!(matches!(flight.wait(far()), Landing::RunOwn));
        assert!(
            flights.running.lock().unwrap().is_empty(),
            "the table keeps nothing after the run"
        );
        assert!(matches!(flights.join("m", 1), Role::Leader(_)));
    }
}
