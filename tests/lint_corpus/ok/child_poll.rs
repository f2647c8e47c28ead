//@path crates/sim/src/race.rs
// The same combinator inside m3_sim polls its child under the executor's
// guard, and a test helper anywhere may poll what it likes.

pub async fn first_of<F: Future>(sim: &Sim, fut: F) -> Option<F::Output> {
    let mut fut = std::pin::pin!(fut);
    std::future::poll_fn(move |cx| match sim.poll_child(|| fut.as_mut().poll(cx)) {
        Poll::Ready(v) => Poll::Ready(Some(v)),
        Poll::Pending => {
            sim.schedule_wake(Cycles::new(10), cx.waker().clone());
            Poll::Pending
        }
    })
    .await
}

impl Dtu {
    /// A method named `poll` is not a child poll.
    pub fn poll(&self) -> bool {
        self.ready
    }
}
