//! A deterministic in-process request/response mailbox.
//!
//! Long-running services inside the workspace (the `gbd` inference daemon)
//! need a channel between many client handles and one server loop, with
//! three properties `std::sync::mpsc` does not give directly:
//!
//! 1. **Determinism.** Requests drain in exactly the order they were
//!    enqueued, across all clients, so a run is a pure function of the
//!    enqueue order (which callers keep deterministic themselves).
//! 2. **Reply routing.** Every request yields a [`Ticket`]; the server
//!    replies to the ticket and the client redeems it, so one server loop
//!    can serve many logical conversations without per-client channels.
//! 3. **Tick operation.** The server drains a whole batch at once
//!    ([`Mailbox::drain`]) rather than blocking per message — the daemon's
//!    serve loop works in ticks because only one simulated process can run
//!    at a time.
//!
//! Everything lives behind one mutex; there is no blocking send or
//! receive, so the mailbox cannot deadlock against the simulator's own
//! thread choreography.
//!
//! Posted replies wait in a hash map keyed by ticket ([`FastMap`]: tickets
//! are minted here, never taken from outside). Nothing iterates it — a
//! reply leaves only by its own ticket — so its order cannot reach a
//! result. A drain leaves the inbox with the capacity of the batch it took,
//! so a steady load of sends does not regrow it from empty every tick.

use std::sync::{Arc, Mutex, MutexGuard};

use crate::hash::FastMap;

/// Redeemable receipt for an enqueued request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Ticket(u64);

impl Ticket {
    /// The ticket's raw sequence number (tickets count up from 0 in
    /// enqueue order, across all clients).
    pub fn raw(self) -> u64 {
        self.0
    }
}

/// One drained request, with the coordinates the server needs to reply.
#[derive(Debug, Clone)]
pub struct Envelope<Req> {
    /// Which client sent it (dense ids in [`MailboxClient`] creation order).
    pub client: u64,
    /// The receipt the sender holds; reply to this.
    pub ticket: Ticket,
    /// The request itself.
    pub req: Req,
}

#[derive(Debug)]
struct State<Req, Resp> {
    next_ticket: u64,
    next_client: u64,
    inbox: Vec<Envelope<Req>>,
    replies: FastMap<u64, Resp>,
}

/// The server side: create clients, drain requests, post replies.
#[derive(Debug)]
pub struct Mailbox<Req, Resp> {
    shared: Arc<Mutex<State<Req, Resp>>>,
}

/// A cloneable client handle: enqueue requests, redeem replies.
#[derive(Debug)]
pub struct MailboxClient<Req, Resp> {
    id: u64,
    shared: Arc<Mutex<State<Req, Resp>>>,
}

impl<Req, Resp> Clone for MailboxClient<Req, Resp> {
    fn clone(&self) -> Self {
        MailboxClient {
            id: self.id,
            shared: Arc::clone(&self.shared),
        }
    }
}

fn lock<Req, Resp>(m: &Arc<Mutex<State<Req, Resp>>>) -> MutexGuard<'_, State<Req, Resp>> {
    match m.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

impl<Req, Resp> Default for Mailbox<Req, Resp> {
    fn default() -> Self {
        Mailbox::new()
    }
}

impl<Req, Resp> Mailbox<Req, Resp> {
    /// Creates an empty mailbox.
    pub fn new() -> Self {
        Mailbox {
            shared: Arc::new(Mutex::new(State {
                next_ticket: 0,
                next_client: 0,
                inbox: Vec::new(),
                replies: FastMap::default(),
            })),
        }
    }

    /// Creates a new client handle with the next dense client id.
    pub fn client(&self) -> MailboxClient<Req, Resp> {
        let mut st = lock(&self.shared);
        let id = st.next_client;
        st.next_client += 1;
        MailboxClient {
            id,
            shared: Arc::clone(&self.shared),
        }
    }

    /// Takes every pending request, in enqueue order across all clients.
    pub fn drain(&self) -> Vec<Envelope<Req>> {
        let mut st = lock(&self.shared);
        let room = Vec::with_capacity(st.inbox.len());
        std::mem::replace(&mut st.inbox, room)
    }

    /// Number of requests waiting to be drained.
    pub fn pending(&self) -> usize {
        lock(&self.shared).inbox.len()
    }

    /// Posts the reply for a ticket. Replaces any prior reply to the same
    /// ticket (servers reply at most once in practice).
    pub fn reply(&self, ticket: Ticket, resp: Resp) {
        lock(&self.shared).replies.insert(ticket.0, resp);
    }

    /// Number of posted replies not yet redeemed.
    pub fn unredeemed(&self) -> usize {
        lock(&self.shared).replies.len()
    }
}

impl<Req, Resp> MailboxClient<Req, Resp> {
    /// This client's dense id (creation order).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Enqueues a request; redeem the ticket after the server's next tick.
    pub fn send(&self, req: Req) -> Ticket {
        let mut st = lock(&self.shared);
        let ticket = Ticket(st.next_ticket);
        st.next_ticket += 1;
        let client = self.id;
        st.inbox.push(Envelope {
            client,
            ticket,
            req,
        });
        ticket
    }

    /// Redeems a reply, if the server has posted one. Consuming: a second
    /// call for the same ticket returns `None`.
    pub fn try_take(&self, ticket: Ticket) -> Option<Resp> {
        lock(&self.shared).replies.remove(&ticket.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn requests_drain_in_enqueue_order_across_clients() {
        let mbox: Mailbox<&'static str, u64> = Mailbox::new();
        let a = mbox.client();
        let b = mbox.client();
        assert_eq!((a.id(), b.id()), (0, 1));
        let t0 = a.send("a0");
        let t1 = b.send("b0");
        let t2 = a.send("a1");
        assert_eq!(mbox.pending(), 3);
        let batch = mbox.drain();
        assert_eq!(mbox.pending(), 0);
        let order: Vec<(u64, &str)> = batch.iter().map(|e| (e.client, e.req)).collect();
        assert_eq!(order, vec![(0, "a0"), (1, "b0"), (0, "a1")]);
        assert_eq!(
            batch.iter().map(|e| e.ticket).collect::<Vec<_>>(),
            vec![t0, t1, t2]
        );
    }

    #[test]
    fn replies_route_by_ticket_and_are_consuming() {
        let mbox: Mailbox<u64, u64> = Mailbox::new();
        let a = mbox.client();
        let b = a.clone();
        let t0 = a.send(10);
        let t1 = b.send(20);
        for env in mbox.drain() {
            mbox.reply(env.ticket, env.req * 2);
        }
        assert_eq!(mbox.unredeemed(), 2);
        assert_eq!(b.try_take(t1), Some(40));
        assert_eq!(a.try_take(t0), Some(20));
        assert_eq!(a.try_take(t0), None, "redeem is consuming");
        assert_eq!(mbox.unredeemed(), 0);
    }

    #[test]
    fn unserved_ticket_is_none_until_replied() {
        let mbox: Mailbox<(), &'static str> = Mailbox::new();
        let c = mbox.client();
        let t = c.send(());
        assert_eq!(c.try_take(t), None);
        mbox.drain();
        mbox.reply(t, "done");
        assert_eq!(c.try_take(t), Some("done"));
    }
}
