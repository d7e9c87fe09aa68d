from stagepomdp.strategies import Strategy


class Opaque(Strategy):
    """Hides the concrete strategy class, so only its cursors and ``act``
    are seen: the wrapper has no controller form and takes the general
    routes (enumeration, cursor tables)."""

    def __init__(self, inner):
        self.inner = inner
        self.n_actions = inner.n_actions

    def start(self, first_signal):
        return self.inner.start(first_signal)

    def act(self, history):
        return self.inner.act(history)
