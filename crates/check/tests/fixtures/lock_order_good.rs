//! Good fixture: the same two locks, acquired in one consistent
//! order (state, then sched) at every site — including one function
//! that holds both directly. The classed pair is no nested-lock
//! finding: a consistent order keeps the whole-workspace lock-order
//! graph acyclic, and that is all it takes.

use std::sync::{Mutex, PoisonError};

pub struct Pool {
    state: Mutex<Vec<u64>>,
    sched: Mutex<Vec<u64>>,
}

impl Pool {
    pub fn enqueue(&self, task: u64) {
        let mut state = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        state.push(task);
        let mut sched = self.sched.lock().unwrap_or_else(PoisonError::into_inner);
        sched.push(task);
    }

    pub fn drain(&self) -> u64 {
        let mut state = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        let task = state.pop().unwrap_or_default();
        drop(state);
        self.note_sched(task);
        task
    }

    fn note_sched(&self, task: u64) {
        let mut sched = self.sched.lock().unwrap_or_else(PoisonError::into_inner);
        sched.retain(|&t| t != task);
    }
}
