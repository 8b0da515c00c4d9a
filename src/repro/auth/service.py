"""The authentication service process and the OCS security hooks.

The service issues tickets; :func:`enable_signing` makes a runtime attach
its ticket to every outgoing call, and :func:`install_verifier` makes a
servant-side runtime reject calls whose credentials fail verification.
The cluster secret lives on each server's disk (seeded at build time,
like a keytab); settops receive their ticket during the secure boot
(section 3.4.1 -- "Anil also was deeply involved in figuring out how to
boot settops securely").
"""

from __future__ import annotations

from typing import Optional

from repro.auth.tickets import Ticket, sign_ticket, verify_ticket
from repro.idl import register_exception, register_interface
from repro.ocs.runtime import CallContext, OCSRuntime
from repro.services.base import Service

register_interface("Auth", {
    "getTicket": ("principal",),
    "renewTicket": ("ticket",),
    # Tickets are pure signed values (no server-side session state), so
    # re-issuing one on a retry is harmless.
}, doc="Kerberos-like ticket granting (section 3.3)",
   idempotent=("getTicket", "renewTicket"))


@register_exception
class AuthRefused(Exception):
    """The authentication service declined to issue a ticket."""


SECRET_DISK_KEY = "auth/cluster-secret"
DEFAULT_TICKET_LIFETIME = 8 * 3600.0


def seed_secret(disk, secret: bytes) -> None:
    disk.write(SECRET_DISK_KEY, secret)


class AuthenticationService(Service):
    service_name = "auth"

    async def start(self) -> None:
        secret = self.host.disk.read(SECRET_DISK_KEY)
        if secret is None:
            raise AuthRefused(f"no cluster secret on {self.host.name}")
        self._secret = secret
        self.ref = self.runtime.export(self, "Auth")
        await self.register_objects([self.ref])
        await self.bind_as_replica("auth", self.host.ip, self.ref,
                                   selector="sameserver")

    def issue(self, principal: str) -> Ticket:
        if not principal or "/" in principal:
            raise AuthRefused(f"bad principal {principal!r}")
        return sign_ticket(self._secret, principal, self.kernel.now,
                           DEFAULT_TICKET_LIFETIME)

    def getTicket(self, ctx: CallContext, principal: str) -> Ticket:
        # The caller may only obtain tickets for its own identity, which
        # OCS derives from the transport (ctx.caller).
        if principal != ctx.caller:
            raise AuthRefused(
                f"{ctx.caller} may not obtain a ticket for {principal}")
        return self.issue(principal)

    def renewTicket(self, ctx: CallContext, ticket: Ticket) -> Ticket:
        if not isinstance(ticket, Ticket) or ticket.principal != ctx.caller:
            raise AuthRefused("renewal requires the caller's own ticket")
        return self.issue(ticket.principal)


def enable_signing(runtime: OCSRuntime, ticket: Ticket) -> None:
    """Attach ``ticket`` to every call this runtime makes."""
    runtime.credentials = ticket


def install_verifier(runtime: OCSRuntime, secret: bytes) -> None:
    """Reject incoming calls with missing/invalid credentials."""

    def verify(credentials: Optional[Ticket], caller: str) -> bool:
        if credentials is None:
            return False
        return verify_ticket(secret, credentials, runtime.kernel.now, caller)

    runtime.verifier = verify
