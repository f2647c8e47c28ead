//@path crates/serve/src/race.rs
// A combinator outside m3_sim: it arms its own timer only after the child
// is pending, so a child resumed in place would run past it.

pub async fn first_of<F: Future>(sim: &Sim, fut: F) -> Option<F::Output> {
    let mut fut = std::pin::pin!(fut);
    std::future::poll_fn(move |cx| match fut.as_mut().poll(cx) {
        Poll::Ready(v) => Poll::Ready(Some(v)),
        Poll::Pending => {
            sim.schedule_wake(Cycles::new(10), cx.waker().clone());
            Poll::Pending
        }
    })
    .await
}
