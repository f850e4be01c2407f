"""The NI-side DVCM runtime.

Runs as a VxWorks task on the card: receives I2O messages, looks up the
target instruction across the loaded extension modules, executes the
handler (charging a per-message dispatch cost on the NI CPU), and posts the
reply. Extensions may be loaded and unloaded at run time — "the services
implemented by the DVCM vary over time, in keeping with the needs of
current cluster applications".
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Generator

from repro.hw.cpu import CPU
from repro.rtos.task import Task
from repro.sim import Environment

from .extension import ExtensionModule, Instruction
from .messages import I2OMessage, I2OReply, MessageQueuePair

__all__ = ["VCMRuntime"]

#: NI CPU cycles to receive, decode, and dispatch one message frame
MESSAGE_DISPATCH_CYCLES = 900.0

#: reply frames remembered for at-most-once dedup of duplicated/retried
#: message ids (bounded so a long-lived runtime stays bounded)
REPLY_CACHE_ENTRIES = 512


class VCMRuntime:
    """Dispatch loop + extension registry on one NI."""

    def __init__(
        self,
        env: Environment,
        queues: MessageQueuePair,
        cpu: CPU,
        name: str = "vcm",
        card=None,
    ) -> None:
        self.env = env
        self.queues = queues
        self.cpu = cpu
        self.name = name
        #: the NI card this runtime's firmware lives on, when known: a
        #: crashed card's runtime serves nothing (messages die unanswered,
        #: which is what the host-side peer-down detection keys off)
        self.card = card
        self._instructions: dict[str, Instruction] = {}
        self._modules: dict[str, ExtensionModule] = {}
        self.messages_handled = 0
        self.messages_lost_to_crash = 0
        self.errors = 0
        #: at-most-once execution: replies cached by msg_id so a duplicated
        #: or host-retransmitted request re-sends its reply instead of
        #: executing the handler twice
        self._reply_cache: OrderedDict[int, I2OReply] = OrderedDict()
        self.duplicates_deduped = 0

    # -- extension management ----------------------------------------------------
    def load_extension(self, module: ExtensionModule) -> None:
        if module.name in self._modules:
            raise ValueError(f"extension {module.name!r} already loaded")
        for name, handler in module.instructions().items():
            qualified = module.qualified(name)
            if qualified in self._instructions:  # pragma: no cover - guarded above
                raise ValueError(f"instruction collision: {qualified!r}")
            self._instructions[qualified] = handler
        self._modules[module.name] = module

    def unload_extension(self, name: str) -> None:
        module = self._modules.pop(name, None)
        if module is None:
            raise KeyError(f"extension {name!r} not loaded")
        for iname in module.instructions():
            del self._instructions[module.qualified(iname)]

    @property
    def instruction_names(self) -> list[str]:
        return sorted(self._instructions)

    # -- the dispatch task ----------------------------------------------------------
    def task_body(self, task: Task) -> Generator:
        """VxWorks task body: serve messages forever (at-most-once)."""
        while True:
            message: I2OMessage = yield self.queues.receive()
            obs = self.env.obs
            if self.card is not None and self.card.crashed:
                # wedged firmware: the frame is consumed but never served
                # (no reply, no compute) — callers hit their timeout or
                # peer-down path
                self.messages_lost_to_crash += 1
                if obs is not None:
                    obs.count("vcm.lost_to_crash", runtime=self.name)
                continue
            sp = (
                obs.begin(
                    "firmware",
                    track=self.cpu.track,
                    fn=message.function,
                    msg_id=message.msg_id,
                )
                if obs is not None
                else None
            )
            yield task.compute(self.cpu.time_us(MESSAGE_DISPATCH_CYCLES))
            cached = self._reply_cache.get(message.msg_id)
            if cached is not None:
                # duplicate delivery (bus fault or host retransmit): do not
                # execute again — repost the remembered reply
                self.duplicates_deduped += 1
                yield from self.queues.reply(cached)
                if obs is not None:
                    obs.end(sp, deduped=True)
                    obs.count("vcm.duplicates_deduped", runtime=self.name)
                continue
            reply = self._execute(message)
            self._reply_cache[message.msg_id] = reply
            while len(self._reply_cache) > REPLY_CACHE_ENTRIES:
                self._reply_cache.popitem(last=False)
            yield from self.queues.reply(reply)
            if obs is not None:
                obs.end(sp, status=reply.status)
                obs.count("vcm.messages_handled", runtime=self.name)
                if reply.status != "ok":
                    obs.count("vcm.errors", runtime=self.name)

    def _execute(self, message: I2OMessage) -> I2OReply:
        handler = self._instructions.get(message.function)
        if handler is None:
            self.errors += 1
            return I2OReply(
                msg_id=message.msg_id,
                status="error",
                result=f"unknown instruction {message.function!r}",
            )
        try:
            result = handler(message.payload)
        except Exception as err:  # deliberate: errors travel back as replies
            self.errors += 1
            return I2OReply(msg_id=message.msg_id, status="error", result=str(err))
        self.messages_handled += 1
        return I2OReply(msg_id=message.msg_id, status="ok", result=result)

    def __repr__(self) -> str:
        return (
            f"<VCMRuntime {self.name!r} modules={sorted(self._modules)} "
            f"handled={self.messages_handled}>"
        )
