//! Fixture: seeded L001 violation — a scheduler function holding two
//! queue locks at once.

use std::collections::VecDeque;
use std::sync::Mutex;

pub fn steal_broken(queues: &[Mutex<VecDeque<usize>>], me: usize, victim: usize) {
    let mut mine = queues[me].lock().expect("own queue");
    // L001: victim lock taken while `mine` is still live.
    let mut theirs = queues[victim].lock().expect("victim queue");
    if let Some(job) = theirs.pop_back() {
        mine.push_back(job);
    }
}
